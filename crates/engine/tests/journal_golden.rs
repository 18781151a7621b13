//! Golden-file test for the journal format: `tests/golden/journal.jsonl`
//! holds one record of every type, and a name with every kind of escaped
//! and raw char, as the journal has always written them. It must read back
//! to the expected records and render back byte for byte, so journals
//! written before any codec change stay readable.

use asj_engine::{Journal, JournalRecord};

fn expected() -> Vec<JournalRecord> {
    vec![
        JournalRecord::Admit {
            job: 0,
            name: "ε\"q\\x".into(),
        },
        JournalRecord::Admit {
            job: 1,
            name: "tab\tnl\ncr\r nul\u{0} us\u{1f} ls\u{2028} astral\u{1F600} é".into(),
        },
        JournalRecord::Grant { job: 0 },
        JournalRecord::Grant { job: 1 },
        JournalRecord::Stage {
            job: 0,
            stage: "shuffle.R".into(),
            key: "job0-shuffle.R-0".into(),
            bytes: 4096,
        },
        JournalRecord::Done {
            job: 0,
            result: vec![0x00, 0xff, 0x10, 0xab],
            checksum: u64::MAX,
        },
        JournalRecord::Done {
            job: 1,
            result: vec![],
            checksum: 0,
        },
        JournalRecord::Recover,
        JournalRecord::Compact {
            kept: 3,
            dropped: 5,
        },
    ]
}

#[test]
fn golden_journal_reads_back_and_renders_byte_for_byte() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/journal.jsonl");
    assert_eq!(
        Journal::read(path).expect("golden journal reads"),
        expected()
    );
    let rendered: String = expected()
        .iter()
        .map(|rec| format!("{}\n", rec.to_line()))
        .collect();
    let golden = include_str!("golden/journal.jsonl");
    assert_eq!(rendered, golden, "rendered journal:\n{rendered}");
}
