pub fn handle_frame(store: &Tenant, kind: u8) -> u64 {
    match kind {
        3 => store.rebuild_now(7, 64),
        _ => 0,
    }
}
