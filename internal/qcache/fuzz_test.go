package qcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecodeEntry drives the envelope decoder — the check every disk file
// and every peer-supplied cache entry passes — with arbitrary bytes and
// stamps. Whatever arrives, DecodeEntry must not panic, every refusal must
// be an *EntryError, and an accepted payload must be exactly the bytes after
// the header line, with the length and SHA-256 the header declares.
func FuzzDecodeEntry(f *testing.F) {
	for _, st := range []Stamp{{Repr: "alg", Norm: "left"}, {Repr: "float", Norm: "max", Eps: 1e-6}} {
		good := EncodeEntry([]byte(`{"qubits":3}`), st)
		f.Add(good, st.Repr, st.Norm, st.Eps)
		f.Add(good[:len(good)-1], st.Repr, st.Norm, st.Eps)
		f.Add(EncodeEntry(nil, st), st.Repr, st.Norm, st.Eps)
	}
	f.Add([]byte("qcache v1 repr=alg norm=left eps=0x0p+00 len=-1 sha256=00\n"), "alg", "left", 0.0)
	f.Add([]byte("qcache v2\npayload"), "alg", "left", 0.0)
	f.Add([]byte("no header"), "", "", 0.0)
	f.Fuzz(func(t *testing.T, raw []byte, repr, norm string, eps float64) {
		payload, err := DecodeEntry(raw, Stamp{Repr: repr, Norm: norm, Eps: eps})
		if err != nil {
			var ee *EntryError
			if !errors.As(err, &ee) {
				t.Fatalf("refusal %v (%T) is not an *EntryError", err, err)
			}
			return
		}
		header, body, _ := bytes.Cut(raw, []byte("\n"))
		if !bytes.Equal(payload, body) {
			t.Fatalf("accepted payload %q is not the bytes after the header %q", payload, body)
		}
		var declLen, declSum string
		for _, kv := range strings.Fields(string(header)) {
			if v, ok := strings.CutPrefix(kv, "len="); ok {
				declLen = v
			}
			if v, ok := strings.CutPrefix(kv, "sha256="); ok {
				declSum = v
			}
		}
		sum := sha256.Sum256(payload)
		if n, err := strconv.Atoi(declLen); err != nil || n != len(payload) {
			t.Fatalf("accepted %d payload bytes under len=%q", len(payload), declLen)
		}
		if declSum != hex.EncodeToString(sum[:]) {
			t.Fatalf("accepted payload under sha256=%q, actual %x", declSum, sum)
		}
	})
}
