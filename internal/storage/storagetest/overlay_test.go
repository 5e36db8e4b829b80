package storagetest

import (
	"testing"

	"thunderbolt/internal/storage"
	"thunderbolt/internal/types"
)

func TestOverlayReadYourWrites(t *testing.T) {
	s := storage.New()
	s.Set("a", types.Value("base"))
	o := NewOverlay(s)
	v, ok := o.Get("a")
	if !ok || string(v) != "base" {
		t.Fatalf("read-through failed: %q", v)
	}
	o.Set("a", types.Value("mine"))
	if v, _ := o.Get("a"); string(v) != "mine" {
		t.Fatal("overlay did not see own write")
	}
	// Base unchanged until flush.
	if v, _ := s.Get("a"); string(v) != "base" {
		t.Fatal("overlay leaked before flush")
	}
	o.Flush()
	if v, _ := s.Get("a"); string(v) != "mine" {
		t.Fatal("flush did not apply")
	}
}

func TestOverlayWriteOrderAndReset(t *testing.T) {
	o := NewOverlay(storage.New())
	o.Set("b", types.Value("1"))
	o.Set("a", types.Value("2"))
	o.Set("b", types.Value("3")) // overwrite keeps first-write position
	ws := o.Writes()
	if len(ws) != 2 || ws[0].Key != "b" || string(ws[0].Value) != "3" || ws[1].Key != "a" {
		t.Fatalf("write order wrong: %+v", ws)
	}
	o.Reset()
	if len(o.Writes()) != 0 {
		t.Fatal("reset did not clear writes")
	}
}
