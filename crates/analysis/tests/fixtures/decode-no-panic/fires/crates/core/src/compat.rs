pub enum PersistError {
    Truncated,
}

fn decode_kind(buf: &[u8]) -> Result<u8, PersistError> {
    Ok(buf[5])
}
