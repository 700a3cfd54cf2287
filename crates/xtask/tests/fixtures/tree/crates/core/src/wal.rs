//! Stand-in for the sanctioned WAL module: uses every wal-io token and
//! must never fire rule 9 (nor rule 6 — it opens in append mode and
//! truncates torn tails via `set_len`, never `File::create`/`fs::write`).

pub fn append_and_sync(path: &std::path::Path, record: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)?;
    file.write_all(record)?;
    file.sync_data()
}
