//! Golden vectors pinning the WAL's and the checkpoint's on-disk formats.
//! If any of these break, old stores stop recovering — bump the magic's
//! version byte and write a migration instead of editing the expectations.

mod common;

use dams_crypto::sha256::sha256;
use dams_store::{crc32, MemBackend, Store, StoreConfig};
use dams_store::wal::{
    decode_header, encode_header, frame_record, scan, TailStatus, RECORD_HEADER_LEN,
    WAL_HEADER_LEN,
};

/// IEEE CRC-32 check value — every conforming implementation maps
/// "123456789" to this constant (zlib's `crc32` agrees).
#[test]
fn crc32_known_answers() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"dams-golden"), 0x160B_B440);
}

#[test]
fn header_golden_bytes() {
    let header = encode_header(0x0123_4567_89AB_CDEF);
    assert_eq!(header.len(), WAL_HEADER_LEN as usize);
    assert_eq!(
        header,
        [
            // magic "DAMSWAL" + format version 1
            0x44, 0x41, 0x4D, 0x53, 0x57, 0x41, 0x4C, 0x01,
            // group fingerprint, little endian
            0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,
        ]
    );
    assert_eq!(decode_header(&header), Ok(0x0123_4567_89AB_CDEF));
}

#[test]
fn record_golden_bytes() {
    let rec = frame_record(b"dams-golden");
    assert_eq!(rec.len(), RECORD_HEADER_LEN as usize + 11);
    assert_eq!(&rec[0..4], &11u32.to_le_bytes(), "length, little endian");
    assert_eq!(&rec[4..8], &0x160B_B440u32.to_le_bytes(), "crc32, little endian");
    assert_eq!(&rec[8..], b"dams-golden");
}

#[test]
fn golden_image_scans_clean() {
    // Note: a zero-length record is deliberately NOT representable — the
    // scan treats `len == 0` as a bad length (see `TailStatus::BadLength`),
    // because a zeroed extent is indistinguishable from one.
    let mut image = encode_header(7);
    image.extend_from_slice(&frame_record(b"dams-golden"));
    image.extend_from_slice(&frame_record(b"123456789"));
    let out = scan(&image).expect("golden image is valid");
    assert_eq!(out.records.len(), 2);
    assert_eq!(out.tail, TailStatus::Clean);
    assert_eq!(out.records[0].offset, WAL_HEADER_LEN);
    assert_eq!(out.records[1].offset, WAL_HEADER_LEN + RECORD_HEADER_LEN + 11);
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The durable images of a store that appended the reference ledger (two
/// committed rings) and checkpointed at its tip: the checkpoint's key-image
/// set and ring fingerprints, and every WAL record, byte for byte.
#[test]
fn checkpoint_golden_bytes() {
    let (group, chain, _) = common::reference_chain();
    let mut store = Store::open(
        Box::new(MemBackend::new()),
        Box::new(MemBackend::new()),
        group,
        StoreConfig::default(),
    )
    .expect("fresh store")
    .store;
    for block in &chain.blocks()[1..] {
        store.append_block(block).expect("append");
    }
    store.write_checkpoint(&chain).expect("checkpoint");
    let (mut wal_dev, mut cp_dev) = store.into_backends();
    let cp = cp_dev.read_all().expect("cp bytes");
    let wal = wal_dev.read_all().expect("wal bytes");
    // 16-byte envelope, then group fp, height, tip, WAL length, two key
    // images and two ring fingerprints, each behind a u64 count.
    assert_eq!(cp.len(), 168);
    assert_eq!(&cp[..8], b"DAMSCKP\x01");
    assert_eq!(&cp[8..12], &152u32.to_le_bytes());
    assert_eq!(
        hex(&sha256(&cp)),
        "31e7a22433960514405844741ba823fbbf9819534e5dc864ca581631e234cb13"
    );
    assert_eq!(wal.len(), 1350);
    assert_eq!(
        hex(&sha256(&wal)),
        "b33db5b58210cf514574e5b1623a9c8def304a18dc909e617e71ab1528338484"
    );
}
