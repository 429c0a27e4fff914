package lease

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// The checkpoint log is an append-only JSONL file: an optional header line
// identifying the job, then one line per state transition worth surviving
// a coordinator crash (a credit, a give-up). Each append is fsynced before
// the transition is acknowledged, so a SIGKILLed coordinator loses at most
// the line it was writing, and the tolerant loader skips that torn tail.
// Records are adapter types; the log only frames them.

// MaxLine bounds one log line when reading, and one result body on the
// wire (a result is what gets logged). Results carry full violation
// ledgers and corpus entries, so the cap is generous.
const MaxLine = 16 << 20

// Log appends records to a checkpoint file. A nil *Log discards appends.
type Log struct {
	f *os.File
}

// OpenLog opens path for appending and writes header first when it is
// non-nil (a new or headerless file).
func OpenLog(path string, header any) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	l := &Log{f: f}
	if header != nil {
		if err := l.Append(header); err != nil {
			f.Close()
			return nil, err
		}
	}
	return l, nil
}

// Append writes one record as a JSON line and fsyncs it: units are coarse,
// and surviving a coordinator SIGKILL is the point.
func (l *Log) Append(rec any) error {
	if l == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Close closes the log file.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	return l.f.Close()
}

// LoadLog reads the log at path tolerantly; see ReadLog. A missing file is
// an empty log (first run), not an error.
func LoadLog[R any](path string, add func(R) bool) (skipped int, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	return ReadLog(f, add)
}

// ReadLog decodes each non-empty line of r as one R and hands it to add.
// A line that does not decode, or that add refuses, is skipped and counted
// — a torn tail, a corrupt record — never fatal and never silent. Only a
// read error or a line longer than MaxLine fails the load.
func ReadLog[R any](r io.Reader, add func(R) bool) (skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), MaxLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec R
		if json.Unmarshal(line, &rec) != nil || !add(rec) {
			skipped++
		}
	}
	if err := sc.Err(); err != nil {
		return skipped, fmt.Errorf("checkpoint: %w", err)
	}
	return skipped, nil
}
