package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/shard"
)

// Wire protocol (DESIGN.md §15): little-endian, length-delimited by the
// transport's framing. Every request starts with a version byte so a
// mixed deployment fails loudly instead of mis-decoding; floats travel as
// IEEE-754 bits, so distances and positions round-trip bit-exactly — a
// precondition for the router's results being bit-equal to the
// in-process shard.Router.

// protoVersion is bumped on any incompatible message change. Version 2
// added the occupancy frame and bitmap to metaResp.
const protoVersion = 2

// RPC op codes (the transport frames carry one per request).
const (
	opMeta         = byte(1) // shard metadata: index, epoch, owned box, occupancy
	opRange        = byte(2) // range query at a pinned epoch
	opKNN          = byte(3) // kNN scan at a pinned epoch under a global bound
	opPublish      = byte(4) // push one step's local positions (ghost exchange)
	opMaintain     = byte(5) // drive the shard's maintenance to its head epoch
	opPublishDelta = byte(6) // push one step's moved positions only (dirty delta)
	opDirtyLog     = byte(7) // fetch the per-epoch dirty boxes since an epoch
)

// numOps bounds the op-code space for per-op accounting tables.
const numOps = 8

// metaResp is the Meta response: the shard's identity and the routing
// summary the stateless tier caches — the owned box and the occupancy
// bitmap with its frame — at exactly Epoch.
type metaResp struct {
	Shard    int
	Epoch    uint64
	NumOwned int
	Sum      shard.Summary
}

// rangeReq asks for the owned vertices inside Box at exactly Epoch.
type rangeReq struct {
	Epoch uint64
	Box   geom.AABB
}

// rangeResp answers a rangeReq. Skew reports the server could not answer
// at the requested epoch; Epoch is then the server's current epoch and
// IDs is empty — the router refreshes its metadata and re-queries.
type rangeResp struct {
	Epoch uint64
	Skew  bool
	IDs   []int32
}

// knnReq asks for the shard's owned kNN candidates at exactly Epoch.
// Full and Bound2 ship the router's global KBest state at this shard's
// position in the best-first visit: the heap is not mutated while a
// shard is scanned, so the server can run the in-process widening loop
// to completion locally.
type knnReq struct {
	Epoch  uint64
	P      geom.Vec3
	K      int
	Full   bool
	Bound2 float64
}

// knnResp answers a knnReq; Skew as in rangeResp. Rounds counts the
// widening re-queries the server ran (statistics only). The candidates
// are the shard's owned (squared distance to the probe, global id)
// pairs — exactly what the router's KBest is offered — held as parallel
// slices, the form the server's KBest drains into.
type knnResp struct {
	Epoch  uint64
	Skew   bool
	Rounds int
	GIDs   []int32
	D2s    []float64
}

// publishReq pushes one deformation step: the shard sub-mesh's full
// local position array — owned vertices and the ghost ring — as of
// Epoch. The server's sub-mesh must arrive at exactly Epoch by applying
// it (publishes are ordered; a gap is a protocol error).
type publishReq struct {
	Epoch uint64
	Pos   []geom.Vec3
}

// publishDeltaReq pushes one deformation step as a delta: only the
// local ids that moved (owned or ghost — the cluster translates the
// global dirty set through the remap tables, so the ghost exchange stays
// exact) and their new positions. The server preloads its back buffer
// with the current front, overwrites exactly IDs, and publishes — bit
// equal to a full publish of the same step by construction. Box is the
// global dirty AABB (old ∪ new positions of every mover) the router-side
// cache invalidates by. Same ordering contract as publishReq: the
// sub-mesh must arrive at exactly Epoch.
type publishDeltaReq struct {
	Epoch uint64
	Box   geom.AABB
	IDs   []int32
	Pos   []geom.Vec3
}

// dirtyLogReq asks for the per-epoch dirty records after From (i.e. the
// interval (From, head]).
type dirtyLogReq struct {
	From uint64
}

// epochResp is the response of Publish, PublishDelta and Maintain: the
// server's resulting epoch (publishes) or the engine's answer epoch
// (Maintain).
type epochResp struct {
	Epoch uint64
}

// --- encoding ---------------------------------------------------------

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
func appendVec3(b []byte, v geom.Vec3) []byte {
	b = appendF64(b, v.X)
	b = appendF64(b, v.Y)
	return appendF64(b, v.Z)
}
func appendBox(b []byte, a geom.AABB) []byte {
	b = appendVec3(b, a.Min)
	return appendVec3(b, a.Max)
}

// reader decodes a message, latching the first error so call sites stay
// linear; a short buffer is reported, never read past.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("dist: short message decoding %s (%d bytes, offset %d)", what, len(r.b), r.off)
	}
}

func (r *reader) u8(what string) byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

func (r *reader) vec3(what string) geom.Vec3 {
	return geom.Vec3{X: r.f64(what), Y: r.f64(what), Z: r.f64(what)}
}

func (r *reader) box(what string) geom.AABB {
	return geom.AABB{Min: r.vec3(what), Max: r.vec3(what)}
}

func (r *reader) bool(what string) bool { return r.u8(what) != 0 }

// skip consumes n elements of size bytes each — a run the caller reads
// straight from r.b once the message has validated — and returns the
// offset they start at. A count the buffer cannot hold fails before
// anything is sized by it.
func (r *reader) skip(n, size int, what string) int {
	at := r.off
	if r.err != nil || n > (len(r.b)-r.off)/size {
		r.fail(what)
		return at
	}
	r.off += n * size
	return at
}

// done reports decode success and that the message held nothing extra
// (trailing bytes mean a version skew the leading byte failed to catch).
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("dist: %d trailing bytes after message", len(r.b)-r.off)
	}
	return nil
}

// checkVersion consumes and verifies the leading version byte.
func (r *reader) checkVersion() {
	if v := r.u8("version"); r.err == nil && v != protoVersion {
		r.err = fmt.Errorf("dist: protocol version %d, want %d", v, protoVersion)
	}
}

func encodeMetaReq() []byte { return []byte{protoVersion} }

func encodeMetaResp(m metaResp) []byte {
	b := make([]byte, 0, 1+4+8+4+48+48+8*len(m.Sum.Occ.Bits))
	b = append(b, protoVersion)
	b = appendU32(b, uint32(m.Shard))
	b = appendU64(b, m.Epoch)
	b = appendU32(b, uint32(m.NumOwned))
	b = appendBox(b, m.Sum.Box)
	b = appendBox(b, m.Sum.Occ.Frame)
	for _, w := range m.Sum.Occ.Bits {
		b = appendU64(b, w)
	}
	return b
}

func decodeMetaResp(b []byte) (metaResp, error) {
	r := reader{b: b}
	r.checkVersion()
	m := metaResp{
		Shard:    int(r.u32("shard")),
		Epoch:    r.u64("epoch"),
		NumOwned: int(r.u32("numOwned")),
	}
	m.Sum.Box = r.box("box")
	m.Sum.Occ.Frame = r.box("frame")
	for i := range m.Sum.Occ.Bits {
		m.Sum.Occ.Bits[i] = r.u64("occupancy")
	}
	return m, r.done()
}

// appendRangeReq encodes q into b (append-style: the router reuses one
// buffer per query cursor).
func appendRangeReq(b []byte, q rangeReq) []byte {
	b = append(b, protoVersion)
	b = appendU64(b, q.Epoch)
	return appendBox(b, q.Box)
}

func decodeRangeReq(b []byte) (rangeReq, error) {
	r := reader{b: b}
	r.checkVersion()
	q := rangeReq{Epoch: r.u64("epoch"), Box: r.box("box")}
	return q, r.done()
}

func encodeRangeResp(resp rangeResp) []byte {
	b := make([]byte, 0, 1+8+1+4+4*len(resp.IDs))
	b = append(b, protoVersion)
	b = appendU64(b, resp.Epoch)
	b = appendBool(b, resp.Skew)
	b = appendU32(b, uint32(len(resp.IDs)))
	for _, id := range resp.IDs {
		b = appendU32(b, uint32(id))
	}
	return b
}

// decodeRangeResp decodes a rangeResp whose IDs are out with the
// message's ids appended — the router decodes straight into the query's
// result. Nothing is appended unless the whole message is valid.
func decodeRangeResp(b []byte, out []int32) (rangeResp, error) {
	r := reader{b: b}
	r.checkVersion()
	resp := rangeResp{Epoch: r.u64("epoch"), Skew: r.bool("skew")}
	n := int(r.u32("count"))
	at := r.skip(n, 4, "ids")
	if err := r.done(); err != nil {
		return resp, err
	}
	out = slices.Grow(out, n)
	for i := 0; i < n; i++ {
		out = append(out, int32(binary.LittleEndian.Uint32(b[at+4*i:])))
	}
	resp.IDs = out
	return resp, nil
}

// appendKNNReq encodes q into b, append-style like appendRangeReq.
func appendKNNReq(b []byte, q knnReq) []byte {
	b = append(b, protoVersion)
	b = appendU64(b, q.Epoch)
	b = appendVec3(b, q.P)
	b = appendU32(b, uint32(q.K))
	b = appendBool(b, q.Full)
	return appendF64(b, q.Bound2)
}

func decodeKNNReq(b []byte) (knnReq, error) {
	r := reader{b: b}
	r.checkVersion()
	q := knnReq{
		Epoch:  r.u64("epoch"),
		P:      r.vec3("probe"),
		K:      int(r.u32("k")),
		Full:   r.bool("full"),
		Bound2: r.f64("bound2"),
	}
	return q, r.done()
}

// encodeKNNResp encodes resp; len(resp.GIDs) must equal len(resp.D2s).
func encodeKNNResp(resp knnResp) []byte {
	b := make([]byte, 0, 1+8+1+4+4+12*len(resp.GIDs))
	b = append(b, protoVersion)
	b = appendU64(b, resp.Epoch)
	b = appendBool(b, resp.Skew)
	b = appendU32(b, uint32(resp.Rounds))
	b = appendU32(b, uint32(len(resp.GIDs)))
	for i, gid := range resp.GIDs {
		b = appendF64(b, resp.D2s[i])
		b = appendU32(b, uint32(gid))
	}
	return b
}

// decodeKNNResp decodes a knnResp, handing each candidate to offer in
// message order instead of filling GIDs and D2s — the router offers them
// straight into its KBest. offer runs only once the whole message has
// validated.
func decodeKNNResp(b []byte, offer func(d2 float64, gid int32)) (knnResp, error) {
	r := reader{b: b}
	r.checkVersion()
	resp := knnResp{Epoch: r.u64("epoch"), Skew: r.bool("skew"), Rounds: int(r.u32("rounds"))}
	n := int(r.u32("count"))
	at := r.skip(n, 12, "candidates")
	if err := r.done(); err != nil {
		return resp, err
	}
	for i := 0; i < n; i++ {
		c := b[at+12*i:]
		offer(math.Float64frombits(binary.LittleEndian.Uint64(c)), int32(binary.LittleEndian.Uint32(c[8:])))
	}
	return resp, nil
}

// appendPublishReq encodes q into b (append-style so the control plane
// reuses one buffer across shards and steps — the publish hot path must
// not re-allocate the largest message in the protocol every call).
func appendPublishReq(b []byte, q publishReq) []byte {
	b = append(b, protoVersion)
	b = appendU64(b, q.Epoch)
	b = appendU32(b, uint32(len(q.Pos)))
	for _, p := range q.Pos {
		b = appendVec3(b, p)
	}
	return b
}

func encodePublishReq(q publishReq) []byte {
	return appendPublishReq(make([]byte, 0, 1+8+4+24*len(q.Pos)), q)
}

func decodePublishReq(b []byte) (publishReq, error) {
	r := reader{b: b}
	r.checkVersion()
	q := publishReq{Epoch: r.u64("epoch")}
	n := int(r.u32("count"))
	if r.err == nil && n > (len(b)-r.off)/24 {
		r.fail("positions")
	}
	if r.err == nil && n > 0 {
		q.Pos = make([]geom.Vec3, n)
		for i := range q.Pos {
			q.Pos[i] = r.vec3("pos")
		}
	}
	return q, r.done()
}

// appendPublishDeltaReq encodes q into b, append-style like
// appendPublishReq. len(q.IDs) must equal len(q.Pos).
func appendPublishDeltaReq(b []byte, q publishDeltaReq) []byte {
	b = append(b, protoVersion)
	b = appendU64(b, q.Epoch)
	b = appendBox(b, q.Box)
	b = appendU32(b, uint32(len(q.IDs)))
	for _, id := range q.IDs {
		b = appendU32(b, uint32(id))
	}
	for _, p := range q.Pos {
		b = appendVec3(b, p)
	}
	return b
}

func encodePublishDeltaReq(q publishDeltaReq) []byte {
	return appendPublishDeltaReq(make([]byte, 0, 1+8+48+4+28*len(q.IDs)), q)
}

func decodePublishDeltaReq(b []byte) (publishDeltaReq, error) {
	r := reader{b: b}
	r.checkVersion()
	q := publishDeltaReq{Epoch: r.u64("epoch"), Box: r.box("box")}
	n := int(r.u32("count"))
	// Each mover costs 4 (id) + 24 (position) bytes: reject a count the
	// buffer cannot hold before allocating it.
	if r.err == nil && n > (len(b)-r.off)/28 {
		r.fail("movers")
	}
	if r.err == nil && n > 0 {
		q.IDs = make([]int32, n)
		for i := range q.IDs {
			q.IDs[i] = int32(r.u32("id"))
		}
		q.Pos = make([]geom.Vec3, n)
		for i := range q.Pos {
			q.Pos[i] = r.vec3("pos")
		}
	}
	return q, r.done()
}

func encodeDirtyLogReq(q dirtyLogReq) []byte {
	b := make([]byte, 0, 1+8)
	b = append(b, protoVersion)
	return appendU64(b, q.From)
}

func decodeDirtyLogReq(b []byte) (dirtyLogReq, error) {
	r := reader{b: b}
	r.checkVersion()
	q := dirtyLogReq{From: r.u64("from")}
	return q, r.done()
}

// encodeDirtyLogResp encodes a server log's Since answer: head, complete,
// count, then epoch, tracked, box per record.
func encodeDirtyLogResp(resp mesh.DirtySince) []byte {
	b := make([]byte, 0, 1+8+1+4+57*len(resp.Recs))
	b = append(b, protoVersion)
	b = appendU64(b, resp.Head)
	b = appendBool(b, resp.Complete)
	b = appendU32(b, uint32(len(resp.Recs)))
	for _, rec := range resp.Recs {
		b = appendU64(b, rec.Epoch)
		b = appendBool(b, rec.Tracked)
		b = appendBox(b, rec.Box)
	}
	return b
}

func decodeDirtyLogResp(b []byte) (mesh.DirtySince, error) {
	r := reader{b: b}
	r.checkVersion()
	resp := mesh.DirtySince{Head: r.u64("head"), Complete: r.bool("complete")}
	n := int(r.u32("count"))
	if r.err == nil && n > (len(b)-r.off)/57 {
		r.fail("records")
	}
	if r.err == nil && n > 0 {
		resp.Recs = make([]mesh.DirtyRec, n)
		for i := range resp.Recs {
			resp.Recs[i].Epoch = r.u64("epoch")
			resp.Recs[i].Tracked = r.bool("tracked")
			resp.Recs[i].Box = r.box("box")
		}
	}
	return resp, r.done()
}

func encodeMaintainReq() []byte { return []byte{protoVersion} }

func encodeEpochResp(e epochResp) []byte {
	b := make([]byte, 0, 1+8)
	b = append(b, protoVersion)
	return appendU64(b, e.Epoch)
}

func decodeEpochResp(b []byte) (epochResp, error) {
	r := reader{b: b}
	r.checkVersion()
	e := epochResp{Epoch: r.u64("epoch")}
	return e, r.done()
}
