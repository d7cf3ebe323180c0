//! The write-ahead job journal.
//!
//! Every state transition the server must survive — a job's submission, each
//! quantum-edge snapshot of its checkpointed execution, a retry, and its
//! terminal outcome — is appended to a single journal file *before* the
//! in-memory state changes. After a crash (`kill -9` included) the server
//! replays the journal on startup: finished jobs keep their results,
//! unfinished jobs are re-enqueued, and a case job resumes from its last
//! intact snapshot instead of from scratch.
//!
//! Each record is a binary frame around a compact JSON payload:
//!
//! ```text
//! [payload_len u32 LE | fnv1a64(payload) u64 LE | payload bytes]
//! ```
//!
//! Replay stops at the first torn or corrupt frame (a crash mid-append) and
//! truncates the file there, so a torn tail can never poison recovery —
//! everything before it is intact by checksum.

use aqs_rng::fnv1a;
use serde_json::Value;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// An append-only, checksummed record log (see module docs for framing).
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replays every intact
    /// record, and truncates any torn tail. Returns the journal positioned
    /// for appending plus the replayed records in append order.
    pub fn open(path: &Path) -> io::Result<(Self, Vec<Value>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;
        let mut records = Vec::new();
        let mut at = 0usize;
        let mut good = 0usize;
        while bytes.len() - at >= 12 {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            let checksum = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
            let Some(payload) = bytes.get(at + 12..at + 12 + len) else {
                break; // torn tail: frame declared longer than the file
            };
            if fnv1a(payload) != checksum {
                break; // corrupt frame: crash mid-write
            }
            let Ok(text) = std::str::from_utf8(payload) else {
                break;
            };
            let Ok(record) = serde_json::from_str::<Value>(text) else {
                break;
            };
            records.push(record);
            at += 12 + len;
            good = at;
        }
        if good < bytes.len() {
            file.set_len(good as u64)?;
            file.seek(SeekFrom::End(0))?;
        }
        Ok((
            Self {
                file,
                path: path.to_path_buf(),
            },
            records,
        ))
    }

    /// Appends one record and syncs it to disk — the record is durable
    /// before this returns, which is what makes the journal *write-ahead*.
    pub fn append(&mut self, record: &Value) -> io::Result<()> {
        let payload = serde_json::to_string(record)
            .map_err(|e| io::Error::other(format!("journal record serializes: {e}")))?;
        let payload = payload.as_bytes();
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.file.sync_data()
    }

    /// The journal's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Lowercase hex encoding, for snapshot bytes inside JSON records.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Inverse of [`to_hex`]; `None` on odd length or non-hex characters.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("aqs-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn rec(n: u64) -> Value {
        Value::Object(vec![("n".to_string(), Value::U64(n))])
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = tmp("roundtrip");
        {
            let (mut j, initial) = Journal::open(&path).unwrap();
            assert!(initial.is_empty());
            for n in 0..5 {
                j.append(&rec(n)).unwrap();
            }
        }
        let (_, records) = Journal::open(&path).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[3], rec(3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp("torn");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&rec(1)).unwrap();
            j.append(&rec(2)).unwrap();
        }
        // Simulate a crash mid-append: a frame header promising more bytes
        // than the file holds.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&999u32.to_le_bytes()).unwrap();
            f.write_all(&0u64.to_le_bytes()).unwrap();
            f.write_all(b"partial").unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        let (mut j, records) = Journal::open(&path).unwrap();
        assert_eq!(records.len(), 2, "intact prefix survives");
        assert!(
            std::fs::metadata(&path).unwrap().len() < before,
            "torn tail removed"
        );
        // The journal keeps working after truncation.
        j.append(&rec(3)).unwrap();
        drop(j);
        let (_, records) = Journal::open(&path).unwrap();
        assert_eq!(records.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_frame_stops_replay_at_the_last_good_record() {
        let path = tmp("corrupt");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&rec(1)).unwrap();
            j.append(&rec(2)).unwrap();
        }
        // Flip a byte inside the second frame's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, records) = Journal::open(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0], rec(1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hex_round_trips() {
        let bytes = vec![0x00, 0x0f, 0xa5, 0xff];
        assert_eq!(to_hex(&bytes), "000fa5ff");
        assert_eq!(from_hex("000fa5ff"), Some(bytes));
        assert_eq!(from_hex("0g"), None);
        assert_eq!(from_hex("abc"), None);
    }
}
