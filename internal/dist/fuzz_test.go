package dist

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"octopus/internal/geom"
	"octopus/internal/mesh"
)

// FuzzPublishDelta throws arbitrary bytes at the delta-publish decoder:
// it must reject hostile counts before allocating, never read past the
// buffer, and every accepted message must survive a re-encode/re-decode
// round trip unchanged (the decoder accepts nothing the encoder cannot
// reproduce semantically).
func FuzzPublishDelta(f *testing.F) {
	box := geom.Box(geom.V(-1, -2, -3), geom.V(4, 5, 6))
	f.Add(encodePublishDeltaReq(publishDeltaReq{Epoch: 3, Box: box,
		IDs: []int32{0, 7, 2}, Pos: []geom.Vec3{{X: 1}, {Y: 2}, {Z: 3}}}))
	f.Add(encodePublishDeltaReq(publishDeltaReq{Epoch: 1, Box: box}))
	f.Add([]byte{protoVersion})
	f.Add([]byte{protoVersion + 1, 0, 0, 0})
	// A count claiming far more movers than the buffer holds.
	hostile := encodePublishDeltaReq(publishDeltaReq{Epoch: 9, Box: box})
	hostile[len(hostile)-1] = 0x7F
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := decodePublishDeltaReq(data)
		if err != nil {
			return
		}
		if len(q.IDs) != len(q.Pos) {
			t.Fatalf("decoder accepted %d ids with %d positions", len(q.IDs), len(q.Pos))
		}
		// Bit-exact round trip, compared on the wire bytes (struct
		// comparison would trip over NaN positions, which must travel
		// unchanged like any other IEEE-754 payload).
		enc := encodePublishDeltaReq(q)
		again, err := decodePublishDeltaReq(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if !bytes.Equal(encodePublishDeltaReq(again), enc) {
			t.Fatalf("round trip drifted: %x != %x", encodePublishDeltaReq(again), enc)
		}
	})
}

// FuzzDirtyLogResp is the same contract for the dirty-log response — the
// message the router-side cache trusts for its invalidation decisions.
func FuzzDirtyLogResp(f *testing.F) {
	box := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	f.Add(encodeDirtyLogResp(mesh.DirtySince{Head: 4, Complete: true,
		Recs: []mesh.DirtyRec{{Epoch: 3, Tracked: true, Box: box}, {Epoch: 4}}}))
	f.Add(encodeDirtyLogResp(mesh.DirtySince{Head: 0, Complete: false}))
	hostile := encodeDirtyLogResp(mesh.DirtySince{Head: 1, Complete: true})
	hostile[len(hostile)-1] = 0x7F
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := decodeDirtyLogResp(data)
		if err != nil {
			return
		}
		enc := encodeDirtyLogResp(resp)
		again, err := decodeDirtyLogResp(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if !bytes.Equal(encodeDirtyLogResp(again), enc) {
			t.Fatalf("round trip drifted: %x != %x", encodeDirtyLogResp(again), enc)
		}
	})
}

// frameBytes encodes one response frame the way the server writes it.
func frameBytes(tag byte, id uint32, payload []byte) []byte {
	var buf bytes.Buffer
	writeFrame(&buf, tag, id, payload)
	return buf.Bytes()
}

// FuzzMuxClient feeds a hostile byte stream into the demux goroutine of
// a live client connection while calls are in flight. Whatever the
// stream holds — truncated frames, oversized length fields, responses
// for ids never issued or already answered — every Call must return
// (a payload or an error, never a hang) once the stream ends.
func FuzzMuxClient(f *testing.F) {
	ok := encodeEpochResp(epochResp{Epoch: 1})
	f.Add(frameBytes(statusOK, 1, ok), uint8(1))
	f.Add(frameBytes(statusErr, 1, []byte("boom")), uint8(1))
	// Response for an id never issued: must condemn, not mis-deliver.
	f.Add(frameBytes(statusOK, 99, ok), uint8(1))
	// Duplicate responses for one id: second is a protocol violation.
	f.Add(append(frameBytes(statusOK, 1, ok), frameBytes(statusOK, 1, ok)...), uint8(2))
	// Truncated header, and a length field past maxFrame.
	f.Add([]byte{statusOK, 1, 0}, uint8(1))
	f.Add([]byte{statusOK, 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, uint8(1))

	f.Fuzz(func(t *testing.T, stream []byte, n uint8) {
		cli, srv := net.Pipe()
		tc := newTCPConn(cli)
		// Drain the client's request frames so writes never block the
		// calls; the fuzz stream plays the server's response side.
		go io.Copy(io.Discard, srv)

		calls := int(n%4) + 1
		var wg sync.WaitGroup
		for i := 0; i < calls; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tc.Call(opMeta, []byte{protoVersion}, time.Time{})
			}()
		}
		srv.Write(stream)
		srv.Close() // EOF condemns the conn and wakes every waiter
		wg.Wait()   // liveness is the property under test
		tc.Close()
	})
}
