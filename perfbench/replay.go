package main

import (
	"runtime"
	"time"

	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// replayReps is how many times each captured frame is replayed per
// stage.
const replayReps = 20

// codecCost is the per-call cost of the shard's /internal/predict hot
// path, measured by replaying captured frames outside HTTP.
type codecCost struct {
	decodeUs, decodeAllocs float64
	predictNsPerItem       float64
	encodeUs, encodeAllocs float64
	respDecodeUs           float64
}

// measure runs f replayReps times over every frame and returns the
// mean time and heap allocations per call.
func measure(n int, f func(i int)) (time.Duration, float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < replayReps; r++ {
		for i := 0; i < n; i++ {
			f(i)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	calls := float64(replayReps * n)
	return time.Duration(float64(elapsed) / calls), float64(after.Mallocs-before.Mallocs) / calls
}

// replay pushes captured request frames through each stage of the
// shard's binary predict path against the snapshot the frame's shard
// serves now: request decode, PredictPartialInto per item, reply
// encode, and the gateway's reply decode.
func replay(frames []frame, t *tier) (codecCost, error) {
	var cost codecCost
	type decoded struct {
		items [][]string
		w     tagviews.Weighting
		crc   bool
	}
	var dec []decoded
	var snapFr []frame
	for _, fr := range frames {
		if fr.shard < 0 {
			continue
		}
		items, w, crc, err := server.DecodePredictRequest(fr.body)
		if err != nil {
			return cost, err
		}
		dec = append(dec, decoded{items, w, crc})
		snapFr = append(snapFr, fr)
	}
	n := len(dec)
	if n == 0 {
		return cost, nil
	}
	d, a := measure(n, func(i int) { _, _, _, _ = server.DecodePredictRequest(snapFr[i].body) })
	cost.decodeUs, cost.decodeAllocs = us(d), a

	nC := t.world.N()
	buf := make([]float64, nC)
	// Partials per frame, kept for the encode stage.
	wsums := make([][]float64, n)
	vecs := make([][]float64, n)
	items := 0
	for i := range dec {
		snap := t.nodes[snapFr[i].shard].srv.Store().Load()
		wsums[i] = make([]float64, len(dec[i].items))
		vecs[i] = make([]float64, len(dec[i].items)*nC)
		for j, tags := range dec[i].items {
			wsums[i][j] = snap.PredictPartialInto(vecs[i][j*nC:(j+1)*nC], tags, dec[i].w)
		}
		items += len(dec[i].items)
	}
	start := time.Now()
	for r := 0; r < replayReps; r++ {
		for i := range dec {
			snap := t.nodes[snapFr[i].shard].srv.Store().Load()
			for _, tags := range dec[i].items {
				snap.PredictPartialInto(buf, tags, dec[i].w)
			}
		}
	}
	cost.predictNsPerItem = float64(time.Since(start).Nanoseconds()) / float64(replayReps*items)

	enc := server.GetPredictWireEncoder()
	defer server.PutPredictWireEncoder(enc)
	encode := func(i int) []byte {
		snap := t.nodes[snapFr[i].shard].srv.Store().Load()
		enc.Begin(dec[i].w, snap.Records(), 0, nC, len(dec[i].items), dec[i].crc)
		for j := range dec[i].items {
			enc.Item(wsums[i][j], vecs[i][j*nC:(j+1)*nC])
		}
		return enc.Finish()
	}
	replies := make([][]byte, n)
	for i := range replies {
		replies[i] = append([]byte(nil), encode(i)...)
	}
	d, a = measure(n, func(i int) { encode(i) })
	cost.encodeUs, cost.encodeAllocs = us(d), a

	var out server.PredictPartials
	var derr error
	d, _ = measure(n, func(i int) {
		if err := server.DecodePredictResponse(replies[i], &out, len(dec[i].items), nC); err != nil {
			derr = err
		}
	})
	cost.respDecodeUs = us(d)
	return cost, derr
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
