package metrics

import (
	"strings"
	"testing"
)

// TestFlightRecorderWraparound fills a small ring past capacity and
// checks that only the newest cap events survive, oldest-first, with
// contiguous sequence numbers.
func TestFlightRecorderWraparound(t *testing.T) {
	const ringCap = 8
	f := NewFlightRecorder(ringCap)
	const total = 20
	for i := 0; i < total; i++ {
		f.Note(EvCommit, 1, uint64(i), uint64(i*10), 0)
	}
	if f.Len() != total {
		t.Fatalf("len=%d want %d", f.Len(), total)
	}
	evs := f.Events()
	if len(evs) != ringCap {
		t.Fatalf("retained %d want %d", len(evs), ringCap)
	}
	for i, e := range evs {
		wantSeq := uint64(total - ringCap + i)
		if e.Seq != wantSeq {
			t.Fatalf("event %d: seq=%d want %d", i, e.Seq, wantSeq)
		}
		if e.Round != wantSeq || e.A != wantSeq*10 {
			t.Fatalf("event %d: payload mismatch %+v", i, e)
		}
		if i > 0 && evs[i-1].At > e.At {
			t.Fatalf("timestamps not monotone at %d", i)
		}
	}
}

// TestFlightRecorderDumpOrder checks the text dump renders oldest
// first and honors the `last` limit.
func TestFlightRecorderDumpOrder(t *testing.T) {
	f := NewFlightRecorder(16)
	f.Note(EvPropose, 0, 1, 0, 0)
	f.Note(EvCert, 0, 1, 0, 0)
	f.Note(EvCommit, 0, 1, 5, 0)

	dump := f.Dump(0)
	lines := strings.Split(strings.TrimSpace(dump), "\n")
	if len(lines) != 3 {
		t.Fatalf("dump lines=%d:\n%s", len(lines), dump)
	}
	order := []string{"propose", "cert", "commit"}
	for i, kind := range order {
		if !strings.Contains(lines[i], kind) {
			t.Fatalf("line %d = %q, want kind %q", i, lines[i], kind)
		}
	}

	// last=2 keeps only the newest two, still oldest-first.
	dump2 := f.Dump(2)
	lines2 := strings.Split(strings.TrimSpace(dump2), "\n")
	if len(lines2) != 2 || !strings.Contains(lines2[0], "cert") || !strings.Contains(lines2[1], "commit") {
		t.Fatalf("limited dump wrong:\n%s", dump2)
	}
}

func TestFlightRecorderEmpty(t *testing.T) {
	f := NewFlightRecorder(4)
	if f.Len() != 0 || len(f.Events()) != 0 || f.Dump(0) != "" {
		t.Fatal("empty recorder not empty")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{
		EvPropose, EvVote, EvCert, EvCommit, EvSkip, EvShift, EvGC,
		EvSnapCapture, EvSnapInstall, EvEpochJump, EvSendErr, EvReconfig, EvFastForward,
		EvSpecStart, EvSpecConfirm, EvSpecRollback, EvAnchorSkip,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}
