package types

import (
	"bytes"
	"fmt"
	"testing"
)

func testLeaves(k int) []Digest {
	out := make([]Digest, k)
	for i := range out {
		out[i] = HashBytes([]byte(fmt.Sprintf("leaf-%d-of-%d", i, k)))
	}
	return out
}

// naiveRoot is the tree's definition, written the slow way: pair up,
// promote an odd tail, repeat.
func naiveRoot(level []Digest) Digest {
	for len(level) > 1 {
		var next []Digest
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, merkleNode(level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0]
}

// TestMerklePathsReproduceRoot: for every tree size through 33 — every
// shape of odd-tail promotion up to six levels — and every leaf, the
// path leads from the leaf to the root, and no single flipped bit in
// the leaf, the direction word or a sibling still does.
func TestMerklePathsReproduceRoot(t *testing.T) {
	var tree MerkleTree // one value, rebuilt: as the node uses it
	for k := 1; k <= 33; k++ {
		leaves := testLeaves(k)
		root := tree.Build(leaves)
		if want := naiveRoot(leaves); root != want {
			t.Fatalf("k=%d: root %s, want %s", k, root, want)
		}
		if k == 1 && root != leaves[0] {
			t.Fatal("the root of one leaf is not the leaf")
		}
		paths := make([]MerklePath, k)
		for i := range paths {
			paths[i] = tree.Path(i)
		}
		for i, p := range paths { // after all were taken: they share one backing array
			if got := p.Fold(leaves[i]); got != root {
				t.Fatalf("k=%d leaf %d: path of %d leads to %s, want the root", k, i, len(p.Sibs), got)
			}
			if k == 1 && len(p.Sibs) != 0 {
				t.Fatal("one-leaf tree has a non-empty path")
			}
			if k > 1 && len(p.Sibs) == 0 {
				t.Fatalf("k=%d leaf %d: empty path", k, i)
			}
			bad := leaves[i]
			bad[7] ^= 0x10
			if p.Fold(bad) == root {
				t.Fatalf("k=%d leaf %d: a flipped leaf bit still reaches the root", k, i)
			}
			for j := range p.Sibs {
				q := MerklePath{Right: p.Right ^ 1<<uint(j), Sibs: p.Sibs}
				if q.Fold(leaves[i]) == root {
					t.Fatalf("k=%d leaf %d: flipped direction %d still reaches the root", k, i, j)
				}
				sibs := append([]Digest(nil), p.Sibs...)
				sibs[j][31] ^= 1
				if (MerklePath{Right: p.Right, Sibs: sibs}).Fold(leaves[i]) == root {
					t.Fatalf("k=%d leaf %d: flipped sibling %d still reaches the root", k, i, j)
				}
			}
			// Another leaf's path is not this leaf's.
			if k > 1 && paths[(i+1)%k].Fold(leaves[i]) == root {
				t.Fatalf("k=%d: leaf %d reaches the root along leaf %d's path", k, i, (i+1)%k)
			}
		}
	}
}

// TestMerkleRootIsNoLeaf: an interior node is not the plain hash of its
// children's bytes (the tag), so a root cannot be recomputed as — or
// mistaken for — a digest of untagged content; and a two-leaf root
// presented as a one-leaf bundle proves nothing about the leaves.
func TestMerkleRootIsNoLeaf(t *testing.T) {
	l := testLeaves(2)
	var tree MerkleTree
	root := tree.Build(l)
	if root == HashBytes(append(append([]byte(nil), l[0][:]...), l[1][:]...)) {
		t.Fatal("interior node is the untagged hash of its children")
	}
	if (MerklePath{}).Fold(root) != root {
		t.Fatal("empty path must fold to the leaf")
	}
	if (MerklePath{}).Fold(l[0]) == root {
		t.Fatal("a leaf folds to a two-leaf root along the empty path")
	}
}

// TestCertificateCodecWithPaths: a certificate mixing plain signatures
// and bundled ones survives the codec, and its identity is that of the
// same certificate without any path.
func TestCertificateCodecWithPaths(t *testing.T) {
	var tree MerkleTree
	leaves := testLeaves(5)
	tree.Build(leaves)
	c := &Certificate{BlockDigest: leaves[4], Epoch: 3, Round: 9, Proposer: 2, Sigs: []Signature{
		{Signer: 0, Sig: []byte("plain-0")},
		{Signer: 1, Sig: []byte("bundled-1"), Path: tree.Path(4)}, // the promoted tail: a one-step path
		{Signer: 3, Sig: []byte("bundled-3"), Path: tree.Path(1)},
	}}
	raw, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, decode := range map[string]func(*Certificate, []byte) error{
		"copy":  (*Certificate).UnmarshalBinary,
		"owned": (*Certificate).UnmarshalBinaryOwned,
	} {
		var got Certificate
		if err := decode(&got, append([]byte(nil), raw...)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Sigs) != 3 {
			t.Fatalf("%s: %d signatures", name, len(got.Sigs))
		}
		for i, s := range got.Sigs {
			w := c.Sigs[i]
			if s.Signer != w.Signer || !bytes.Equal(s.Sig, w.Sig) || s.Path.Right != w.Path.Right || len(s.Path.Sibs) != len(w.Path.Sibs) {
				t.Fatalf("%s: signature %d changed in the codec", name, i)
			}
			for j := range s.Path.Sibs {
				if s.Path.Sibs[j] != w.Path.Sibs[j] {
					t.Fatalf("%s: signature %d sibling %d changed", name, i, j)
				}
			}
		}
		if got.Sigs[0].Path.Sibs != nil {
			t.Fatalf("%s: a plain signature decoded with a path", name)
		}
		again, _ := got.MarshalBinary()
		if !bytes.Equal(again, raw) {
			t.Fatalf("%s: re-encoding differs", name)
		}
		if got.Digest() != c.Digest() {
			t.Fatalf("%s: digest changed in the codec", name)
		}
	}
	bare := &Certificate{BlockDigest: c.BlockDigest, Epoch: c.Epoch, Round: c.Round, Proposer: c.Proposer,
		Sigs: []Signature{{Signer: 2, Sig: []byte("someone else entirely")}}}
	if bare.Digest() != c.Digest() {
		t.Fatal("Certificate.Digest depends on signatures or paths")
	}
	// A path longer than any tree is rejected, not allocated.
	e := NewEncoder()
	e.Digest(c.BlockDigest)
	e.U64(3)
	e.U64(9)
	e.U32(2)
	e.U32(1)
	e.U32(0)
	e.Bytes([]byte("sig"))
	e.U8(maxMerkleDepth + 1)
	var got Certificate
	if got.UnmarshalBinary(e.Sum()) == nil {
		t.Fatal("a certificate with an over-long path decoded")
	}
}
