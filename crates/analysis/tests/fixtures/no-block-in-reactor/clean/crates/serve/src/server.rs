pub enum Handled {
    Reply(u64),
    Rebuild(u64),
}

pub fn handle_frame(kind: u8) -> Handled {
    match kind {
        3 => Handled::Rebuild(7),
        _ => Handled::Reply(0),
    }
}

/// The lane runs rebuilds on its own thread, outside the handler.
pub fn run_lane(store: &Tenant, seed: u64) -> u64 {
    store.rebuild_now(seed, 64)
}
