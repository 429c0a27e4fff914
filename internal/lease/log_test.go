package lease

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzRec is the record FuzzLoadLog reads and writes. Data is []byte so any
// input round-trips exactly (JSON strings would coerce invalid UTF-8).
type fuzzRec struct {
	Type string `json:"type"`
	Data []byte `json:"data,omitempty"`
}

// nonEmptyLines counts the lines bufio.ScanLines yields non-empty: split on
// '\n', one trailing '\r' dropped per line.
func nonEmptyLines(data []byte) int {
	n := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSuffix(line, []byte("\r"))) > 0 {
			n++
		}
	}
	return n
}

// FuzzLoadLog is the checkpoint loader's byte-boundary contract:
//   - it never panics on any input;
//   - every non-empty line counts exactly once, as a record or as Skipped
//     (lines that do not decode, and decoded records the caller refuses);
//   - records written through the log's append path load back unchanged.
func FuzzLoadLog(f *testing.F) {
	for _, seed := range []string{
		"",
		"\n\n",
		`{"type":"campaign","suite_hash":"5d6a7d634ea24a3f","shards":2,"shard_size":4}` + "\n" +
			`{"type":"shard","payload":{"shard":0,"worker":"w0"}}` + "\n",
		`{"type":"shard","payload":{"shard":3,"wor`,
		"{\"type\":\"refuse\"}\r\n{\"type\":\"x\"}\r\n",
		"not json\n{}\n[1,2]\nnull\n",
		`{"type":"fleet","spec_hash":"fz00"}` + "\n" + `{"type":"drop","round":2,"attempts":3}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1 and 2: tolerant load over arbitrary bytes.
		records := 0
		skipped, err := ReadLog(bytes.NewReader(data), func(r fuzzRec) bool {
			if r.Type == "refuse" {
				return false
			}
			records++
			return true
		})
		if err != nil {
			t.Fatalf("ReadLog failed on a %d-byte input: %v", len(data), err)
		}
		if want := nonEmptyLines(data); records+skipped != want {
			t.Fatalf("%d records + %d skipped != %d non-empty lines", records, skipped, want)
		}

		// Property 3: appended records load back unchanged, nothing skipped.
		path := filepath.Join(t.TempDir(), "log")
		written := []fuzzRec{{Type: "header"}, {Type: "rec", Data: data}, {Type: "rec"}}
		log, err := OpenLog(path, written[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range written[1:] {
			if err := log.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		var loaded []fuzzRec
		skipped, err = LoadLog(path, func(r fuzzRec) bool { loaded = append(loaded, r); return true })
		if err != nil || skipped != 0 {
			t.Fatalf("reload: skipped=%d err=%v", skipped, err)
		}
		// An empty Data encodes as omitted, so it loads back nil.
		for i := range loaded {
			if len(loaded[i].Data) == 0 {
				loaded[i].Data = nil
			}
		}
		if len(written[1].Data) == 0 {
			written[1].Data = nil
		}
		if !reflect.DeepEqual(loaded, written) {
			t.Fatalf("appended records changed on reload:\nwrote  %+v\nloaded %+v", written, loaded)
		}
	})
}
