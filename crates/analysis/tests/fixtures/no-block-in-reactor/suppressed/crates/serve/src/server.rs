pub fn handle_frame(store: &Tenant, kind: u8) -> u64 {
    match kind {
        // habf-lint: allow(no-block-in-reactor) -- admin-only frame, served before the workers start
        3 => store.rebuild_now(7, 64),
        _ => 0,
    }
}
