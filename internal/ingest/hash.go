package ingest

// Content addressing for payload sets, reached only through
// runner.HashPayloads (the service addresses a request by a sha256 tree
// over its body's 64 KB chunks instead, internal/serve/address.go,
// DESIGN.md §12). A source's digest covers everything that influences
// its parse — name, driver, scope, raw bytes — so equal digests imply an
// identical instance sequence. Nothing in the program trusts that: no
// store or snapshot carries a content address.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// SourceDigest returns a content address for one in-memory source. The
// fields are length-framed so no two distinct (name, format, scope,
// data) tuples collide by concatenation.
func SourceDigest(name, format, scope string, data []byte) string {
	h := sha256.New()
	var frame [8]byte
	writeField := func(b []byte) {
		binary.LittleEndian.PutUint64(frame[:], uint64(len(b)))
		h.Write(frame[:])
		h.Write(b)
	}
	writeField([]byte(name))
	writeField([]byte(format))
	writeField([]byte(scope))
	writeField(data)
	return hex.EncodeToString(h.Sum(nil))
}

// CombineDigests folds per-source digests into one request-level
// address. Order matters: sources load in sequence and later duplicates
// shadow nothing (duplicate keys append), so a reordered request is a
// different configuration.
func CombineDigests(digests []string) string {
	if len(digests) == 1 {
		return digests[0]
	}
	h := sha256.New()
	var frame [8]byte
	binary.LittleEndian.PutUint64(frame[:], uint64(len(digests)))
	h.Write(frame[:])
	for _, d := range digests {
		h.Write([]byte(d))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
