package dist

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/shard"
)

// TestProtoRoundTrip drives every message type through its encode/decode
// pair, including the float edge cases the bit-exact contract hinges on
// (±Inf bounds, negative zero).
func TestProtoRoundTrip(t *testing.T) {
	box := geom.Box(geom.V(-1.5, 0, math.Copysign(0, -1)), geom.V(2.25, 1e300, 3))

	t.Run("metaResp", func(t *testing.T) {
		in := metaResp{Shard: 3, Epoch: 41, NumOwned: 1234, Sum: shard.Summary{Box: box, Occ: testOcc}}
		b := encodeMetaResp(in)
		if want := 1 + 4 + 8 + 4 + 48 + 112; len(b) != want {
			t.Fatalf("metaResp is %d bytes, want %d (the occupancy frame and bitmap add 112)", len(b), want)
		}
		// The summary travels as box, frame, bitmap — the layout of
		// protoVersion 2.
		if want := appendBox(appendBox(nil, box), testOcc.Frame); !bytes.Equal(b[17:17+96], want) {
			t.Fatalf("metaResp carries box and frame as %x, want %x", b[17:17+96], want)
		}
		out, err := decodeMetaResp(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip: %+v != %+v", out, in)
		}
	})

	t.Run("rangeReq", func(t *testing.T) {
		in := rangeReq{Epoch: 7, Box: box}
		out, err := decodeRangeReq(appendRangeReq(nil, in))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip: %+v != %+v", out, in)
		}
	})

	t.Run("rangeResp", func(t *testing.T) {
		for _, in := range []rangeResp{
			{Epoch: 9, IDs: []int32{0, 5, 2147483647, 3}},
			{Epoch: 10, Skew: true},
			{Epoch: 11}, // empty result, not skew
		} {
			out, err := decodeRangeResp(encodeRangeResp(in), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("round trip: %+v != %+v", out, in)
			}
		}
	})

	t.Run("knnReq", func(t *testing.T) {
		for _, in := range []knnReq{
			{Epoch: 3, P: geom.V(0.1, -0.2, 0.3), K: 8, Full: true, Bound2: 1.25},
			{Epoch: 4, P: geom.V(0, 0, 0), K: 1, Full: false, Bound2: math.Inf(1)},
		} {
			out, err := decodeKNNReq(appendKNNReq(nil, in))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("round trip: %+v != %+v", out, in)
			}
		}
	})

	t.Run("knnResp", func(t *testing.T) {
		for _, in := range []knnResp{
			{Epoch: 5, Rounds: 2, GIDs: []int32{1, 0, 7}, D2s: []float64{0, 0.5, math.MaxFloat64}},
			{Epoch: 6, Skew: true},
			{Epoch: 7},
		} {
			out, cands, err := decodeKNNCands(encodeKNNResp(in))
			for _, c := range cands {
				out.GIDs = append(out.GIDs, c.GID)
				out.D2s = append(out.D2s, c.D2)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("round trip: %+v != %+v", out, in)
			}
		}
	})

	t.Run("publishReq", func(t *testing.T) {
		in := publishReq{Epoch: 12, Pos: []geom.Vec3{{X: 1, Y: 2, Z: 3}, {X: -0.5, Y: math.SmallestNonzeroFloat64, Z: 0}}}
		out, err := decodePublishReq(encodePublishReq(in))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip: %+v != %+v", out, in)
		}
	})

	t.Run("publishDeltaReq", func(t *testing.T) {
		for _, in := range []publishDeltaReq{
			{Epoch: 13, Box: box,
				IDs: []int32{4, 0, 2147483647},
				Pos: []geom.Vec3{{X: 1, Y: 2, Z: 3}, {X: math.Inf(-1), Y: 0, Z: -0}, {X: math.SmallestNonzeroFloat64}}},
			{Epoch: 14, Box: box}, // empty delta: epoch advance only
		} {
			out, err := decodePublishDeltaReq(encodePublishDeltaReq(in))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("round trip: %+v != %+v", out, in)
			}
		}
	})

	t.Run("dirtyLogReq", func(t *testing.T) {
		in := dirtyLogReq{From: 77}
		out, err := decodeDirtyLogReq(encodeDirtyLogReq(in))
		if err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("round trip: %+v != %+v", out, in)
		}
	})

	t.Run("dirtyLogResp", func(t *testing.T) {
		for _, in := range []mesh.DirtySince{
			{Head: 9, Complete: true, Recs: []mesh.DirtyRec{
				{Epoch: 8, Tracked: true, Box: box},
				{Epoch: 9, Tracked: false, Box: geom.EmptyBox()},
			}},
			{Head: 500, Complete: false}, // wrapped ring: no records
			{Head: 0, Complete: true},    // nothing published yet
		} {
			out, err := decodeDirtyLogResp(encodeDirtyLogResp(in))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("round trip: %+v != %+v", out, in)
			}
		}
	})

	t.Run("epochResp", func(t *testing.T) {
		in := epochResp{Epoch: 99}
		out, err := decodeEpochResp(encodeEpochResp(in))
		if err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("round trip: %+v != %+v", out, in)
		}
	})
}

// TestDirtyLogRespGoldenBytes pins the dirty-log reply to the bytes the
// protocol-2 wire has always sent: a router and its shard servers may run
// different builds, so the records and their order must not drift.
func TestDirtyLogRespGoldenBytes(t *testing.T) {
	box := geom.Box(geom.V(-1.5, 0, math.Copysign(0, -1)), geom.V(2.25, 1e300, 3))
	for _, c := range []struct {
		in   mesh.DirtySince
		want string
	}{
		{mesh.DirtySince{Head: 9, Complete: true, Recs: []mesh.DirtyRec{
			{Epoch: 8, Tracked: true, Box: box},
			{Epoch: 9, Tracked: false, Box: geom.EmptyBox()},
		}}, "0209000000000000000102000000080000000000000001000000000000f8bf" +
			"0000000000000000000000000000008000000000000002409c7500883ce4377e" +
			"0000000000000840090000000000000000000000000000f07f000000000000f0" +
			"7f000000000000f07f000000000000f0ff000000000000f0ff000000000000f0ff"},
		{mesh.DirtySince{Head: 500, Complete: false}, "02f4010000000000000000000000"},
	} {
		if got := hex.EncodeToString(encodeDirtyLogResp(c.in)); got != c.want {
			t.Fatalf("%+v encodes as\n%s\nwant\n%s", c.in, got, c.want)
		}
	}
}

// TestProtoRejectsMalformed proves the decoders fail loudly on the wire
// corruptions the version byte and length checks exist for, instead of
// mis-decoding into a plausible message.
func TestProtoRejectsMalformed(t *testing.T) {
	good := encodeRangeResp(rangeResp{Epoch: 1, IDs: []int32{1, 2, 3}})

	t.Run("version-mismatch", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = protoVersion + 1
		if _, err := decodeRangeResp(bad, nil); err == nil {
			t.Fatal("decoded a message with a future protocol version")
		}
	})

	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(good); cut++ {
			if _, err := decodeRangeResp(good[:cut], nil); err == nil {
				t.Fatalf("decoded a message truncated to %d/%d bytes", cut, len(good))
			}
		}
		goodDelta := encodePublishDeltaReq(publishDeltaReq{
			Epoch: 3, Box: geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)),
			IDs: []int32{1, 2}, Pos: []geom.Vec3{{X: 1}, {Y: 2}},
		})
		for cut := 1; cut < len(goodDelta); cut++ {
			if _, err := decodePublishDeltaReq(goodDelta[:cut]); err == nil {
				t.Fatalf("decoded a delta publish truncated to %d/%d bytes", cut, len(goodDelta))
			}
		}
		goodMeta := encodeMetaResp(metaResp{Shard: 1, Epoch: 2, NumOwned: 3,
			Sum: shard.Summary{Box: geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), Occ: testOcc}})
		for cut := 1; cut < len(goodMeta); cut++ {
			if _, err := decodeMetaResp(goodMeta[:cut]); err == nil {
				t.Fatalf("decoded a metaResp truncated to %d/%d bytes", cut, len(goodMeta))
			}
		}
		if _, err := decodeMetaResp(append(goodMeta, 0)); err == nil {
			t.Fatal("decoded a metaResp with a trailing byte")
		}
		goodLog := encodeDirtyLogResp(mesh.DirtySince{Head: 4, Complete: true,
			Recs: []mesh.DirtyRec{{Epoch: 4, Tracked: true, Box: geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))}}})
		for cut := 1; cut < len(goodLog); cut++ {
			if _, err := decodeDirtyLogResp(goodLog[:cut]); err == nil {
				t.Fatalf("decoded a dirty log truncated to %d/%d bytes", cut, len(goodLog))
			}
		}
	})

	t.Run("version-1-meta", func(t *testing.T) {
		// A version-1 server's Meta reply: no occupancy, so the router
		// could only mis-decode it. Both its own length and the length a
		// version-2 reply has are refused on the version byte.
		v1 := []byte{1}
		v1 = appendU32(v1, 0)
		v1 = appendU64(v1, 5)
		v1 = appendU32(v1, 10)
		v1 = appendBox(v1, geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)))
		padded := append(append([]byte(nil), v1...), make([]byte, 112)...)
		for _, b := range [][]byte{v1, padded} {
			if _, err := decodeMetaResp(b); err == nil || !strings.Contains(err.Error(), "version 1") {
				t.Fatalf("decoded a %d-byte version-1 metaResp: %v", len(b), err)
			}
		}
		srv := &Server{}
		if _, err := srv.Handle(opMeta, []byte{1}); err == nil {
			t.Fatal("served a version-1 Meta request")
		}
	})

	t.Run("trailing-bytes", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), 0xFF)
		if _, err := decodeRangeResp(bad, nil); err == nil {
			t.Fatal("decoded a message with trailing bytes")
		}
	})

	t.Run("consumes-nothing-on-error", func(t *testing.T) {
		// The router decodes into the query's result and KBest: a reply
		// that fails to decode must leave both untouched, whatever its
		// valid prefix held.
		out := make([]int32, 1, 8)
		resp, err := decodeRangeResp(append(append([]byte(nil), good...), 0xFF), out)
		if err == nil || len(out) != 1 || out[:4][1] != 0 || resp.IDs != nil {
			t.Fatalf("a rejected range reply appended ids: err=%v out=%v", err, out[:4])
		}
		knn := encodeKNNResp(knnResp{Epoch: 1, GIDs: []int32{4, 5}, D2s: []float64{1, 2}})
		offered := 0
		for _, bad := range [][]byte{knn[:len(knn)-1], append(append([]byte(nil), knn...), 0)} {
			if _, err := decodeKNNResp(bad, func(float64, int32) { offered++ }); err == nil {
				t.Fatal("decoded a malformed kNN reply")
			}
		}
		if offered != 0 {
			t.Fatalf("rejected kNN replies offered %d candidates", offered)
		}
	})

	t.Run("count-overflow", func(t *testing.T) {
		// A count claiming more elements than the buffer holds must be
		// rejected before any allocation of that size.
		bad := encodeKNNResp(knnResp{Epoch: 1})
		bad[len(bad)-4] = 0xFF
		bad[len(bad)-3] = 0xFF
		bad[len(bad)-2] = 0xFF
		bad[len(bad)-1] = 0x7F
		if _, _, err := decodeKNNCands(bad); err == nil {
			t.Fatal("decoded a candidate count larger than the message")
		}
		badPub := encodePublishReq(publishReq{Epoch: 1})
		badPub[len(badPub)-4] = 0xFF
		badPub[len(badPub)-3] = 0xFF
		if _, err := decodePublishReq(badPub); err == nil {
			t.Fatal("decoded a position count larger than the message")
		}
		badDelta := encodePublishDeltaReq(publishDeltaReq{Epoch: 1})
		badDelta[len(badDelta)-4] = 0xFF
		badDelta[len(badDelta)-3] = 0xFF
		if _, err := decodePublishDeltaReq(badDelta); err == nil {
			t.Fatal("decoded a mover count larger than the message")
		}
		badLog := encodeDirtyLogResp(mesh.DirtySince{Head: 1, Complete: true})
		badLog[len(badLog)-4] = 0xFF
		badLog[len(badLog)-3] = 0xFF
		if _, err := decodeDirtyLogResp(badLog); err == nil {
			t.Fatal("decoded a record count larger than the message")
		}
	})

	t.Run("unknown-op", func(t *testing.T) {
		srv := &Server{}
		if _, err := srv.Handle(0xEE, []byte{protoVersion}); err == nil {
			t.Fatal("handled an unknown op")
		}
	})
}

// testOcc is an occupancy with edge-case floats in its frame and a mix
// of set and clear words.
var testOcc = shard.Occupancy{
	Frame: geom.Box(geom.V(math.Inf(-1), -0.5, math.Copysign(0, -1)), geom.V(1, 2, math.MaxFloat64)),
	Bits:  [8]uint64{1, 0, 1 << 63, ^uint64(0), 0x0102040810204080, 0, 7, 1 << 31},
}

// knnCand is one decoded kNN candidate.
type knnCand struct {
	D2  float64
	GID int32
}

// decodeKNNCands decodes a kNN reply with its candidates collected in
// message order.
func decodeKNNCands(b []byte) (knnResp, []knnCand, error) {
	var cands []knnCand
	resp, err := decodeKNNResp(b, func(d2 float64, gid int32) {
		cands = append(cands, knnCand{D2: d2, GID: gid})
	})
	return resp, cands, err
}
