package types

import (
	"crypto/sha256"
	"fmt"
)

// Merkle trees over digests, built so that one signature can vouch for
// several block digests at once (a vote bundle, node/votes.go): the
// signer signs the root, and each leaf travels on with the path that
// leads from it to that root.
//
// Leaves are block digests, used as they are; an interior node is
// SHA-256(merkleNodeTag ‖ left ‖ right). A level of odd width promotes
// its last node unchanged, so a tree of one leaf is that leaf — a
// signature over a block digest is the signature over its one-leaf
// tree. The tag keeps the two kinds of value apart: a block digest is
// the hash of an encoding that begins with the block's epoch, so a
// block hashing to an interior node would have to sit in epoch 2^64−1
// (or break SHA-256). A root, or any interior node, can therefore never
// be presented as the digest of a block some replica holds, and a path
// can only ever start at a leaf the signer put there.

// merkleNodeTag prefixes every interior-node preimage.
var merkleNodeTag = [8]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// maxMerkleDepth bounds a decoded path's length (2^32 leaves).
const maxMerkleDepth = 32

func merkleNode(left, right Digest) Digest {
	var buf [len(merkleNodeTag) + 2*len(Digest{})]byte
	copy(buf[:], merkleNodeTag[:])
	copy(buf[len(merkleNodeTag):], left[:])
	copy(buf[len(merkleNodeTag)+len(left):], right[:])
	return sha256.Sum256(buf[:])
}

// MerklePath proves that a leaf belongs to the tree with a given root:
// the sibling at every level where the node on the way up has one
// (promoted levels contribute nothing), leaf level first, and in Right
// bit i set when the node at Sibs[i]'s level is the right child. The
// zero path is the proof of a one-leaf tree.
type MerklePath struct {
	Right uint32
	Sibs  []Digest
}

// Fold walks the path up from leaf and returns the root it leads to.
func (p MerklePath) Fold(leaf Digest) Digest {
	h := leaf
	for i, s := range p.Sibs {
		if p.Right>>uint(i)&1 == 1 {
			h = merkleNode(s, h)
		} else {
			h = merkleNode(h, s)
		}
	}
	return h
}

func (p MerklePath) encode(e *Encoder) {
	e.U8(uint8(len(p.Sibs)))
	if len(p.Sibs) == 0 {
		return
	}
	e.U32(p.Right)
	for _, s := range p.Sibs {
		e.Digest(s)
	}
}

func (p *MerklePath) decode(d *Decoder) {
	n := int(d.U8())
	*p = MerklePath{}
	if n == 0 {
		return
	}
	if n > maxMerkleDepth {
		if d.err == nil {
			d.err = fmt.Errorf("types: merkle path of %d levels", n)
		}
		return
	}
	p.Right = d.U32()
	p.Sibs = make([]Digest, n)
	for i := range p.Sibs {
		p.Sibs[i] = d.Digest()
	}
}

// MerkleTree is a tree over a list of leaves, rebuilt in place by Build
// so one value serves every bundle a replica seals or checks. Not safe
// for concurrent use.
type MerkleTree struct {
	nodes  []Digest // level by level, leaves first
	leaves int
	depth  int // levels above the leaves
	// sibs backs the paths taken since the last Build: one allocation
	// per tree however many of its paths are asked for. The paths keep
	// it; the next Build starts a new one.
	sibs []Digest
}

// Build replaces the tree with the one over leaves (copied) and returns
// its root. One leaf costs no hashing: the root is the leaf.
func (t *MerkleTree) Build(leaves []Digest) Digest {
	t.leaves, t.depth, t.sibs = len(leaves), 0, nil
	t.nodes = append(t.nodes[:0], leaves...)
	if len(leaves) == 0 {
		return Digest{}
	}
	for off, w := 0, len(leaves); w > 1; off, w = off+w, (w+1)/2 {
		for i := 0; i+1 < w; i += 2 {
			t.nodes = append(t.nodes, merkleNode(t.nodes[off+i], t.nodes[off+i+1]))
		}
		if w%2 == 1 {
			t.nodes = append(t.nodes, t.nodes[off+w-1])
		}
		t.depth++
	}
	return t.nodes[len(t.nodes)-1]
}

// Path returns the proof for leaf i of the last Build. Paths outlive
// the tree, in collectors and certificates: they share memory with each
// other, none with the tree.
func (t *MerkleTree) Path(i int) MerklePath {
	var p MerklePath
	if t.depth == 0 {
		return p
	}
	if t.sibs == nil {
		t.sibs = make([]Digest, 0, t.leaves*t.depth)
	}
	start := len(t.sibs)
	for off, w, pos := 0, t.leaves, i; w > 1; off, w, pos = off+w, (w+1)/2, pos/2 {
		if sib := pos ^ 1; sib < w { // else: odd tail, promoted
			if pos&1 == 1 {
				p.Right |= 1 << uint(len(t.sibs)-start)
			}
			t.sibs = append(t.sibs, t.nodes[off+sib])
		}
	}
	p.Sibs = t.sibs[start:len(t.sibs):len(t.sibs)]
	return p
}
