pub fn pump(queue: &std::sync::Mutex<Vec<u8>>) -> usize {
    let guard = queue.lock();
    match guard {
        Ok(bytes) => bytes.len(),
        Err(_) => 0,
    }
}

pub fn dispatch(store: &Tenant) -> u64 {
    store.rebuild_now(7, 64)
}
