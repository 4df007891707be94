package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"github.com/amlight/intddos/internal/experiment"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/telemetry"
	"github.com/amlight/intddos/internal/testbed"
	"github.com/amlight/intddos/internal/traffic"
)

// attackShare is the attack fraction of the benign-heavy mixes:
// production INT is almost all benign flow updates.
const attackShare = 0.05

// packedKey is an IPv4 flow key with no pointers in it, so tables of
// them cost the garbage collector nothing to scan.
type packedKey struct{ addrs, rest uint64 }

// pack packs k; a non-IPv4 key packs to the zero key, which no
// generated report has.
func pack(k flow.Key) packedKey {
	if !k.Src.Is4() || !k.Dst.Is4() {
		return packedKey{}
	}
	s, d := k.Src.As4(), k.Dst.As4()
	return packedKey{
		addrs: uint64(binary.BigEndian.Uint32(s[:]))<<32 | uint64(binary.BigEndian.Uint32(d[:])),
		rest:  uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto),
	}
}

// stream is one workload's pre-generated report sequence. Everything
// the generator needs while the clock runs is here, so it only
// decodes datagrams and calls HandleReport. The tables live off the Go
// heap (see arena).
type stream struct {
	mem  arena
	slab []byte  // every datagram back to back
	off  []int32 // datagram i is slab[off[i]:off[i+1]]
	// Ground truth, which the wire does not carry: report i's label
	// and attack type (an index into attackTypes).
	label       []bool
	attack      []uint8
	attackTypes []string
	// pk[i] is report i's flow. keys holds the distinct flows in
	// ascending order; flow f = keys[f] sent reports[first[f]:first[f+1]],
	// in send order, so a decision (key, seq) resolves to
	// reports[first[f]+seq].
	pk      []packedKey
	keys    []packedKey
	first   []int32
	reports []int32
	// passLen is how many reports make one pass over the capture.
	passLen int
}

// datagram returns report i in wire form.
func (s *stream) datagram(i int) []byte { return s.slab[s.off[i]:s.off[i+1]] }

// len is the number of reports.
func (s *stream) len() int { return len(s.pk) }

// flows is the number of distinct flows.
func (s *stream) flows() int { return len(s.keys) }

// report decodes report i and re-attaches its ground truth.
func (s *stream) report(i int) (*telemetry.Report, error) {
	r, err := telemetry.DecodeReport(s.datagram(i))
	if err != nil {
		return nil, fmt.Errorf("decode report %d: %w", i, err)
	}
	r.Truth = telemetry.Truth{Label: s.label[i], AttackType: s.attackTypes[s.attack[i]]}
	return r, nil
}

// reportOf returns the index of the report a decision answers, or -1
// when (key, seq) names no generated report.
func (s *stream) reportOf(key packedKey, seq int) int {
	f := sort.Search(len(s.keys), func(i int) bool { return !s.keys[i].less(key) })
	if f == len(s.keys) || s.keys[f] != key || seq < 0 || seq >= int(s.first[f+1]-s.first[f]) {
		return -1
	}
	return int(s.reports[int(s.first[f])+seq])
}

func (k packedKey) less(o packedKey) bool {
	return k.addrs < o.addrs || (k.addrs == o.addrs && k.rest < o.rest)
}

// close releases the stream's memory.
func (s *stream) close() error { return s.mem.release() }

// captureSeed fixes the capture every stream is drawn from, as a
// benchmark replays one recorded trace: the workload's composition
// (which attacks, how many flows, how many reports each) is part of
// its definition. A tiny-scale capture holds only a handful of attack
// episodes, so drawing a new capture per workload seed changed the
// mix itself from seed to seed (and with it CPU, heap growth and the
// sustained rate). Workload seeds instead vary how the stream walks
// this capture: where each cycle starts and how the mix interleaves.
const captureSeed = 42

// capturePool replays the tiny-scale workload at captureSeed through
// the testbed and returns the INT reports in collector arrival order,
// plus the capture they came from.
func capturePool() (*experiment.Capture, []*telemetry.Report, error) {
	const seed = captureSeed
	c, err := experiment.Collect(experiment.DataConfig{Scale: traffic.ScaleTiny, Seed: seed})
	if err != nil {
		return nil, nil, fmt.Errorf("collect capture: %w", err)
	}
	tb := testbed.New(testbed.Config{})
	var pool []*telemetry.Report
	tb.Collector.OnReport = func(r *telemetry.Report, _ netsim.Time) { pool = append(pool, r) }
	rp := tb.Replayer(c.Workload.Records)
	rp.Start()
	tb.Run()
	if len(pool) == 0 {
		return nil, nil, fmt.Errorf("capture at seed %d produced no INT reports", seed)
	}
	return c, pool, nil
}

// order selects how a workload walks the pool.
type order int

const (
	// mixCycled interleaves benign and attack reports at attackShare
	// (seeded), cycling each class in pool order.
	mixCycled order = iota
	// poolOrder replays the pool as captured, where scans and SYN
	// floods dominate.
	poolOrder
)

// buildStream generates n reports from pool. The seed picks where the
// walk through the pool (or through each class, for the mix) starts
// and, for the mix, which slots carry attack reports. With churn, every
// pass over a class's reports moves its flows to fresh source
// addresses, so each pass brings new flows; without it the same flows
// are updated again.
func buildStream(pool []*telemetry.Report, n int, ord order, churn bool, seed int64) (*stream, error) {
	var benign, attack []*telemetry.Report
	for _, r := range pool {
		if !r.Src.Is4() || !r.Dst.Is4() {
			return nil, fmt.Errorf("pool report %v is not IPv4", r.FiveTuple())
		}
		if r.Truth.Label {
			attack = append(attack, r)
		} else {
			benign = append(benign, r)
		}
	}
	if ord == mixCycled && (len(benign) == 0 || len(attack) == 0) {
		return nil, fmt.Errorf("pool has %d benign and %d attack reports; the mix needs both", len(benign), len(attack))
	}
	ordinal := flowOrdinals(pool)
	if churn && len(ordinal) >= 1<<14 {
		return nil, fmt.Errorf("pool has %d flows; churned sources have room for %d", len(ordinal), 1<<14)
	}
	if churn && n/len(pool) >= 1023 {
		return nil, fmt.Errorf("%d reports need more than 1024 churn passes", n)
	}

	// Built on the heap, then copied off it; the garbage is collected
	// before anything is measured.
	var (
		off         = make([]int32, n+1)
		label       = make([]bool, n)
		attackOf    = make([]uint8, n)
		pk          = make([]packedKey, n)
		attackTypes []string
		typeIdx     = map[string]uint8{}
		wire        []byte
	)
	rng := rand.New(rand.NewSource(seed))
	p0, b0, a0 := rng.Intn(len(pool)), rng.Intn(max(len(benign), 1)), rng.Intn(max(len(attack), 1))
	bi, ai := 0, 0
	for i := 0; i < n; i++ {
		var src *telemetry.Report
		var pass int
		switch {
		case ord == poolOrder:
			src, pass = pool[(p0+i)%len(pool)], (p0+i)/len(pool)
		case rng.Float64() < attackShare:
			src, pass = attack[(a0+ai)%len(attack)], (a0+ai)/len(attack)
			ai++
		default:
			src, pass = benign[(b0+bi)%len(benign)], (b0+bi)/len(benign)
			bi++
		}
		r := *src
		r.Seq = uint64(i)
		if churn {
			r.Src = churnedSource(pass, ordinal[flow.FromINT(src, 0).Key])
		}
		wire = append(wire, r.Encode(telemetry.InstAll)...)
		if len(wire) > 1<<31-1 {
			return nil, fmt.Errorf("%d reports do not fit one slab", n)
		}
		off[i+1] = int32(len(wire))
		label[i] = r.Truth.Label
		t, ok := typeIdx[r.Truth.AttackType]
		if !ok {
			if len(attackTypes) > 255 {
				return nil, fmt.Errorf("more than 256 attack types")
			}
			t = uint8(len(attackTypes))
			typeIdx[r.Truth.AttackType] = t
			attackTypes = append(attackTypes, r.Truth.AttackType)
		}
		attackOf[i] = t
		pk[i] = pack(flow.FromINT(&r, 0).Key)
	}

	// Distinct flows in ascending order, then each flow's reports in
	// send order.
	seen := make(map[packedKey]int32)
	var keys []packedKey
	for _, k := range pk {
		if _, ok := seen[k]; !ok {
			seen[k] = 0
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].less(keys[b]) })
	first := make([]int32, len(keys)+1)
	for f, k := range keys {
		seen[k] = int32(f)
	}
	for _, k := range pk {
		first[seen[k]+1]++
	}
	for f := 1; f < len(first); f++ {
		first[f] += first[f-1]
	}
	reports := make([]int32, n)
	next := append([]int32(nil), first[:len(keys)]...)
	for i, k := range pk {
		f := seen[k]
		reports[next[f]] = int32(i)
		next[f]++
	}

	s := &stream{attackTypes: attackTypes, passLen: len(pool)}
	var err error
	s.slab = copyOffHeap(&s.mem, wire, &err)
	s.off = copyOffHeap(&s.mem, off, &err)
	s.label = copyOffHeap(&s.mem, label, &err)
	s.attack = copyOffHeap(&s.mem, attackOf, &err)
	s.pk = copyOffHeap(&s.mem, pk, &err)
	s.keys = copyOffHeap(&s.mem, keys, &err)
	s.first = copyOffHeap(&s.mem, first, &err)
	s.reports = copyOffHeap(&s.mem, reports, &err)
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// flowOrdinals numbers the pool's distinct flows in first-seen order.
func flowOrdinals(pool []*telemetry.Report) map[flow.Key]int {
	ord := make(map[flow.Key]int)
	for _, r := range pool {
		k := flow.FromINT(r, 0).Key
		if _, ok := ord[k]; !ok {
			ord[k] = len(ord)
		}
	}
	return ord
}

// churnedSource maps (pass, flow ordinal) one-to-one onto 10.0.0.0/8,
// so no churned flow collides with another pass's flows: flow identity
// stays exact, which the (key, seq) lookup and the per-flow checks
// depend on. The pool has well under 2^14 flows.
func churnedSource(pass, ordinal int) netip.Addr {
	v := uint32(10)<<24 | uint32(pass%1024)<<14 | uint32(ordinal)&(1<<14-1)
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}
