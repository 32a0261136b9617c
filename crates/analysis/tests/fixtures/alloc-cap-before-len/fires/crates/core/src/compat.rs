pub enum PersistError {
    Truncated,
}

fn decode_tiers(count: usize) -> Result<Vec<u64>, PersistError> {
    let tiers = Vec::with_capacity(count);
    Ok(tiers)
}
