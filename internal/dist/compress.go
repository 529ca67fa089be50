package dist

import (
	"sync/atomic"

	"sysml/internal/compress"
	"sysml/internal/matrix"
)

// Compressed wire codec: a broadcast or a shuffle partial is charged its
// compressed size when that is smaller than the dense block. A side input
// carrying an attached compressed form (internal/compress.Attach, made by
// the interpreter's auto-compress pass) is charged the priced size of its
// column groups (compress.WireSizeBytes); a partial without an attachment
// is priced by the dictionary codec (compress.DenseWireBytes), which only
// claims a win for low-cardinality payloads. Nothing is serialized:
// computation is unaffected, and like the rest of this backend, only the
// traffic accounting is simulated.

// SetCompressedWire toggles the compressed wire codec and returns the
// previous setting. The bench CLA gates disable it to measure the dense
// shipping baseline.
func (c *Cluster) SetCompressedWire(on bool) bool {
	old := atomic.LoadInt32(&c.cwOff) == 0
	if on {
		atomic.StoreInt32(&c.cwOff, 0)
	} else {
		atomic.StoreInt32(&c.cwOff, 1)
	}
	return old
}

// CompressedWireStats returns the compressed shipping counters: bytes that
// actually crossed the simulated wire in compressed form, and the bytes
// saved versus shipping the dense blocks.
func (c *Cluster) CompressedWireStats() (bcastBytes, bcastSaved, shuffleBytes, shuffleSaved int64) {
	return atomic.LoadInt64(&c.cwBcastBytes), atomic.LoadInt64(&c.cwBcastSaved),
		atomic.LoadInt64(&c.cwShuffleBytes), atomic.LoadInt64(&c.cwShufSaved)
}

// wireBytes returns the bytes one copy of m is charged on the wire and
// whether that is a compressed size. An attached compressed form wins when
// its priced size beats the matrix's storage; otherwise the dictionary
// codec prices the dense payload and only claims a win when it is smaller.
func (c *Cluster) wireBytes(m *matrix.Matrix) (int64, bool) {
	if atomic.LoadInt32(&c.cwOff) != 0 {
		return m.SizeBytes(), false
	}
	if cm := compress.Of(m); cm != nil {
		if w := compress.WireSizeBytes(cm); w < m.SizeBytes() {
			return w, true
		}
	}
	if w, ok := compress.DenseWireBytes(m); ok {
		return w, true
	}
	return m.SizeBytes(), false
}

// shipBytes prices one shuffle transfer of a partial, accounting the
// compressed-wire counters when the codec wins.
func (c *Cluster) shipBytes(m *matrix.Matrix) int64 {
	raw := m.SizeBytes()
	w, compressed := c.wireBytes(m)
	if !compressed || w >= raw {
		return raw
	}
	atomic.AddInt64(&c.cwShuffleBytes, w)
	atomic.AddInt64(&c.cwShufSaved, raw-w)
	return w
}
