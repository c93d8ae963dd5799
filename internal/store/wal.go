package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"bivoc/internal/mining"
	"bivoc/internal/wire"
)

// Write-ahead log, version 1. The WAL extends the pipeline's failure
// semantics (PR 2: in-process retries, dead-letter budgets) across
// process death: every document the ingest loop accepts is appended
// here before it is only held in RAM, so a crashed daemon restarts from
// segment ∪ WAL-tail instead of losing the stream.
//
//	header   magic "BVWL" | version uint32 LE
//	record   uvarint payload length | payload | CRC-32 (IEEE, over the
//	         payload) uint32 LE
//	payload  one document with inline strings: id · time varint ·
//	         concepts (count, then category · canonical · start · end) ·
//	         fields (count, key-sorted, then name · value)
//
// Records are self-checking and independently decodable, so replay
// tolerates the one failure mode an append-only log has: a torn tail
// from a crash mid-write (or mid-fsync-window). Replay stops at the
// first record that is short or fails its CRC, reports how many bytes
// it dropped, and the writer truncates the file back to the last good
// record before appending again.

var walMagic = [4]byte{'B', 'V', 'W', 'L'}

const (
	walVersion   = 1
	walHeaderLen = 8
)

// appendWALRecord encodes one document as a WAL record into buf.
func appendWALRecord(buf []byte, doc mining.Document) []byte {
	payload := AppendDocument(make([]byte, 0, 256), doc)
	return wire.AppendU32(wire.AppendBytes(buf, payload), crc32.ChecksumIEEE(payload))
}

// replayWAL reads every intact record from a WAL file. It returns the
// decoded documents, the byte offset just past the last good record
// (the truncation point for re-opening the log for append), and the
// number of torn-tail bytes dropped. A missing file is an empty log. A
// bad header is corruption — unlike a torn tail, it means the file was
// never a WAL, and silently treating it as empty could shadow data.
func replayWAL(path string) (docs []mining.Document, goodLen int64, dropped int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, fmt.Errorf("store: reading WAL: %w", err)
	}
	return replayWALData(data)
}

// replayWALData is replayWAL over in-memory bytes (also the fuzz
// surface: it must error, never panic, on arbitrary input).
func replayWALData(data []byte) (docs []mining.Document, goodLen int64, dropped int64, err error) {
	if len(data) < walHeaderLen {
		if len(data) == 0 {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, corruptf("WAL header truncated (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != walMagic {
		return nil, 0, 0, corruptf("bad WAL magic %q", data[:4])
	}
	r := wire.ReaderAt(data, 4)
	if v := r.U32(); v != walVersion {
		return nil, 0, 0, corruptf("unsupported WAL version %d (want %d)", v, walVersion)
	}
	good := walHeaderLen
	for good < len(data) {
		payload, sum := r.Bytes(), r.U32()
		if r.Err() != nil || crc32.ChecksumIEEE(payload) != sum {
			break // torn tail: a record cut short, or one that fails its CRC
		}
		rec := wire.NewReader(payload)
		doc := ReadDocument(&rec)
		if err := rec.Done(); err != nil {
			// CRC passed but the payload does not parse: written by a
			// different codec, not a torn tail. Refuse the whole log.
			return nil, 0, 0, fmt.Errorf("store: WAL record at offset %d: %w", good, corrupt(err))
		}
		docs = append(docs, doc)
		good = r.Offset()
	}
	return docs, int64(good), int64(len(data) - good), nil
}

// openWALForAppend opens (creating if needed) the WAL positioned for
// appending at goodLen, truncating any torn tail found by replay.
func openWALForAppend(path string, goodLen int64) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("store: opening WAL: %w", err)
	}
	if goodLen < walHeaderLen {
		// Fresh or empty file: (re)write the header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("store: truncating WAL: %w", err)
		}
		hdr := wire.AppendU32(append([]byte(nil), walMagic[:]...), walVersion)
		if _, err := f.WriteAt(hdr, 0); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("store: writing WAL header: %w", err)
		}
		goodLen = walHeaderLen
	} else if err := f.Truncate(goodLen); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("store: truncating WAL torn tail: %w", err)
	}
	if _, err := f.Seek(goodLen, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("store: seeking WAL: %w", err)
	}
	return f, goodLen, nil
}
