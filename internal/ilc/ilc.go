// Package ilc compiles IL kernels to R700-style ISA programs. It performs
// the lowering steps the paper attributes to the CAL compiler and whose
// side effects the micro-benchmarks measure:
//
//   - clause formation: runs of fetches become TEX clauses (at most
//     MaxFetchesPerTEXClause per clause), runs of ALU ops become ALU
//     clauses (at most MaxSlotsPerALUClause bundles), stores become one
//     export clause;
//   - VLIW packing: independent scalar ops co-issue in one bundle's
//     x/y/z/w/t slots; the suite's dependency chains defeat packing by
//     construction, so their ALU instruction count is data-type
//     independent, exactly as Section III observes;
//   - register allocation: values consumed only by the immediately
//     following bundle ride the previous-vector (PV/PS) path; values live
//     only within one ALU clause use the two clause-temporary registers
//     (T0/T1); everything else — fetch destinations, values crossing
//     clause boundaries, store sources — occupies general purpose
//     registers assigned by a linear scan with reuse. The peak GPR count
//     is what determines simultaneous wavefronts per SIMD engine.
package ilc

import (
	"fmt"
	"sort"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/isa"
)

// locKind says where a value lives.
type locKind int

const (
	locUnset locKind = iota
	locGPR
	locPV   // previous-bundle vector result
	locPS   // previous-bundle scalar (t slot) result
	locTemp // clause temporary T0/T1
)

type location struct {
	kind locKind
	idx  int // GPR number or T register number
	chn  int // channel for scalar values (lane 0 for vectors)
	slot isa.Slot
}

// value tracks one SSA temporary through compilation.
type value struct {
	def         int   // defining IL instruction index
	uses        []int // consuming IL instruction indices, ascending
	clause      int   // producer clause (last lane's, for vector trans)
	clauseFirst int   // first lane's clause; differs when lanes straddle
	bundle      int   // producer bundle index within its clause
	runIdx      int   // producer bundle index within its ALU run
	loc         location
	fromALU     bool
	needGPR     bool
	tempCand    bool
	vectorTrans bool // float4 transcendental: lanes spread over 4 bundles
}

// packedOp is one IL ALU op (or one lane of a vector transcendental)
// placed in a bundle: width consecutive slots starting at slot (one for
// scalars and transcendental lanes, x..w for float4). lane is -1 except
// for vector transcendental lanes, which occupy the t slot of four
// consecutive bundles. The narrow fields keep bundle drafts small.
type packedOp struct {
	ilIdx int32
	lane  int8
	width uint8
	slot  uint8 // isa.Slot
}

// bundleDraft is one VLIW bundle being packed. Every op takes at least
// one slot, so a bundle holds at most NumSlots ops.
type bundleDraft struct {
	ops  [isa.NumSlots]packedOp
	used [isa.NumSlots]bool
	n    uint8
}

// packed returns the ops placed in the bundle so far.
func (b *bundleDraft) packed() []packedOp { return b.ops[:b.n] }

func (b *bundleDraft) canHold(vector, trans bool) bool {
	if trans {
		// Transcendentals issue only on the t core; vector
		// transcendentals are placed lane-wise, one t slot per bundle.
		return !b.used[isa.SlotT]
	}
	if vector {
		return !b.used[isa.SlotX] && !b.used[isa.SlotY] && !b.used[isa.SlotZ] && !b.used[isa.SlotW]
	}
	for s := 0; s < isa.NumSlots; s++ {
		if !b.used[s] {
			return true
		}
	}
	return false
}

func (b *bundleDraft) place(ilIdx, lane int, vector, trans bool) {
	op := packedOp{ilIdx: int32(ilIdx), lane: int8(lane), width: 1}
	switch {
	case trans:
		b.used[isa.SlotT] = true
		op.slot = uint8(isa.SlotT)
	case vector:
		op.slot, op.width = uint8(isa.SlotX), 4
		for s := isa.SlotX; s <= isa.SlotW; s++ {
			b.used[s] = true
		}
	default:
		for s := isa.Slot(0); s < isa.NumSlots; s++ {
			if !b.used[s] {
				b.used[s] = true
				op.slot = uint8(s)
				break
			}
		}
	}
	b.ops[b.n] = op
	b.n++
}

// clauseDraft is a clause being assembled. TEX and store clauses cover
// the contiguous IL range [lo, hi); ALU clauses hold packed bundles.
type clauseDraft struct {
	kind    isa.ClauseKind
	lo, hi  int
	bundles []bundleDraft
}

// Options selects compiler ablations. The zero value is the normal
// compiler; the ablation benchmarks (DESIGN.md §7) switch individual
// forwarding paths off to quantify what each contributes to the paper's
// register-pressure story.
type Options struct {
	// NoPVForwarding disables the previous-vector/previous-scalar path:
	// every single-consumer value falls back to clause temporaries or
	// general purpose registers.
	NoPVForwarding bool
	// NoClauseTemps disables T0/T1: intra-clause values go straight to
	// general purpose registers, raising the peak GPR count and therefore
	// cutting wavefront occupancy.
	NoClauseTemps bool
}

// Compile lowers an IL kernel to an ISA program for the given device.
func Compile(k *il.Kernel, spec device.Spec) (*isa.Program, error) {
	return CompileWith(k, spec, Options{})
}

// CompileWith lowers an IL kernel with explicit compiler options.
func CompileWith(k *il.Kernel, spec device.Spec, opts Options) (*isa.Program, error) {
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("ilc: %w", err)
	}
	if spec.MaxFetchesPerTEXClause <= 0 || spec.MaxSlotsPerALUClause <= 0 {
		return nil, fmt.Errorf("ilc: %s: clause limits must be positive (TEX %d, ALU %d)",
			spec.Arch, spec.MaxFetchesPerTEXClause, spec.MaxSlotsPerALUClause)
	}
	if k.Mode == il.Compute && !spec.SupportsCompute {
		return nil, fmt.Errorf("ilc: %s does not support compute shader mode", spec.Arch)
	}

	vals := collectValues(k)
	clauses := formClauses(k, spec, vals)
	assignLocations(k, vals, clauses, opts)
	first, last := scheduleTimes(k, clauses)
	gprCount := allocateGPRs(k, vals, first, last)
	prog := emit(k, vals, clauses, gprCount)
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("ilc: internal error: emitted invalid program: %w", err)
	}
	return prog, nil
}

// collectValues builds def/use chains for every temporary. Every value's
// uses are a sub-slice of one slab, sized by a counting pass.
func collectValues(k *il.Kernel) []value {
	vals := make([]value, k.NumTemps())
	counts := make([]int, len(vals))
	total := 0
	for _, in := range k.Code {
		for _, s := range [2]il.Reg{in.SrcA, in.SrcB} {
			if s != il.NoReg {
				counts[s]++
				total++
			}
		}
	}
	slab := make([]int, total)
	off := 0
	for i := range vals {
		vals[i].def = -1
		vals[i].uses = slab[off : off : off+counts[i]]
		off += counts[i]
	}
	for i, in := range k.Code {
		if in.Dst != il.NoReg {
			vals[in.Dst].def = i
			vals[in.Dst].fromALU = in.Op.IsALU()
		}
		for _, s := range [2]il.Reg{in.SrcA, in.SrcB} {
			if s != il.NoReg {
				vals[s].uses = append(vals[s].uses, i) // within capacity
			}
		}
	}
	return vals
}

// runEnd returns the end of the run of same-class instructions (fetches,
// ALU ops or stores) that starts at code[i].
func runEnd(code []il.Instr, i int) int {
	op := code[i].Op
	same := il.Opcode.IsStore
	switch {
	case op.IsFetch():
		same = il.Opcode.IsFetch
	case op.IsALU():
		same = il.Opcode.IsALU
	}
	j := i
	for j < len(code) && same(code[j].Op) {
		j++
	}
	return j
}

// ceilDiv returns ⌈a/b⌉ for a >= 0, b > 0.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// formClauses segments the IL stream into clause drafts, packing ALU runs
// into VLIW bundles along the way, and records each ALU value's producing
// clause/bundle position in vals. The clause and bundle slabs are sized
// up front from an upper bound (an ALU op fills at most one bundle, a
// float4 transcendental four), so neither ever regrows.
func formClauses(k *il.Kernel, spec device.Spec, vals []value) []clauseDraft {
	vector := k.Type == il.Float4
	maxClauses, maxBundles := 0, 0
	for i := 0; i < len(k.Code); {
		j := runEnd(k.Code, i)
		switch op := k.Code[i].Op; {
		case op.IsFetch():
			maxClauses += ceilDiv(j-i, spec.MaxFetchesPerTEXClause)
		case op.IsALU():
			nb := j - i
			if vector {
				for x := i; x < j; x++ {
					if k.Code[x].Op.IsTrans() {
						nb += 3
					}
				}
			}
			maxBundles += nb
			maxClauses += ceilDiv(nb, spec.MaxSlotsPerALUClause)
		default:
			maxClauses++
		}
		i = j
	}
	clauses := make([]clauseDraft, 0, maxClauses)
	bundles := make([]bundleDraft, 0, maxBundles)

	for i := 0; i < len(k.Code); {
		j := runEnd(k.Code, i)
		switch op := k.Code[i].Op; {
		case op.IsFetch():
			for s := i; s < j; s += spec.MaxFetchesPerTEXClause {
				e := min(s+spec.MaxFetchesPerTEXClause, j)
				clauses = append(clauses, clauseDraft{kind: isa.ClauseTEX, lo: s, hi: e})
			}
		case op.IsALU():
			start := len(bundles)
			bundles = packRun(k, vals, i, j, vector, bundles)
			run := bundles[start:]
			// Split the packed run into clauses at the slot limit and
			// record final positions.
			for s := 0; s < len(run); s += spec.MaxSlotsPerALUClause {
				e := min(s+spec.MaxSlotsPerALUClause, len(run))
				cd := clauseDraft{kind: isa.ClauseALU, bundles: run[s:e:e]}
				ci := len(clauses)
				for bi := range cd.bundles {
					for _, po := range cd.bundles[bi].packed() {
						dst := k.Code[po.ilIdx].Dst
						if po.lane <= 0 {
							vals[dst].clauseFirst = ci
						}
						vals[dst].clause = ci
						vals[dst].bundle = bi
					}
				}
				clauses = append(clauses, cd)
			}
		default: // stores
			kind := isa.ClauseEXP
			if op == il.OpGlobalStore {
				kind = isa.ClauseMEM
			}
			clauses = append(clauses, clauseDraft{kind: kind, lo: i, hi: j})
		}
		i = j
	}
	return clauses
}

// packRun performs greedy dependency-aware VLIW packing of the ALU ops in
// k.Code[from:to), appending the run's bundles to bundles. Each value's
// bundle index within the run is stored in vals[].runIdx (the last lane's
// bundle for vector transcendentals, which spread over four bundles' t
// slots).
func packRun(k *il.Kernel, vals []value, from, to int, vector bool, bundles []bundleDraft) []bundleDraft {
	start := len(bundles)
	placeAt := func(earliest, ilIdx, lane int, vec, trans bool) int {
		for bi := start + earliest; bi < len(bundles); bi++ {
			if bundles[bi].canHold(vec, trans) {
				bundles[bi].place(ilIdx, lane, vec, trans)
				return bi - start
			}
		}
		bundles = append(bundles, bundleDraft{})
		bundles[len(bundles)-1].place(ilIdx, lane, vec, trans)
		return len(bundles) - 1 - start
	}
	for i := from; i < to; i++ {
		in := k.Code[i]
		earliest := 0
		for _, s := range [2]il.Reg{in.SrcA, in.SrcB} {
			if s == il.NoReg {
				continue
			}
			v := &vals[s]
			if v.fromALU && v.def >= from && v.def < i {
				if v.runIdx+1 > earliest {
					earliest = v.runIdx + 1
				}
			}
		}
		trans := in.Op.IsTrans()
		switch {
		case trans && vector:
			// One lane per bundle on the t core: a float4 transcendental
			// costs four bundles, the 4:1 throughput penalty of the
			// single transcendental stream core.
			bi := earliest
			for lane := 0; lane < 4; lane++ {
				bi = placeAt(bi, i, lane, false, true)
				vals[in.Dst].runIdx = bi
				bi++
			}
			vals[in.Dst].vectorTrans = true
		default:
			bi := placeAt(earliest, i, -1, vector && !trans, trans)
			vals[in.Dst].runIdx = bi
		}
	}
	return bundles
}

// pos is an ALU op's placement: clause, bundle within the clause, and
// issue slot.
type pos struct {
	clause, bundle int
	slot           isa.Slot
}

// assignLocations decides PV / clause-temp / GPR for every value, honoring
// the hardware rules: PV reaches only the next bundle of the same clause;
// clause temporaries do not survive clause boundaries and only
// spec-many exist; fetch results and store sources must be GPRs.
func assignLocations(k *il.Kernel, vals []value, clauses []clauseDraft, opts Options) {
	// Build lookups from IL index to (clause, bundle, slot) for ALU ops.
	// Vector transcendentals occupy four bundles, so an op has a first
	// and a last placement: it reads its sources at every placement and
	// its result is complete only after the last.
	// Both are indexed by IL instruction; posFirst's clause stays -1 for
	// instructions that are not ALU ops.
	n := len(k.Code)
	posBuf := make([]pos, 2*n)
	posFirst, posLast := posBuf[:n:n], posBuf[n:]
	for i := range posFirst {
		posFirst[i].clause = -1
	}
	for ci := range clauses {
		for bi := range clauses[ci].bundles {
			for _, po := range clauses[ci].bundles[bi].packed() {
				p := pos{ci, bi, isa.Slot(po.slot)}
				if posFirst[po.ilIdx].clause < 0 {
					posFirst[po.ilIdx] = p
				}
				posLast[po.ilIdx] = p
			}
		}
	}

	// First pass: classify.
	for vi := range vals {
		v := &vals[vi]
		if v.def < 0 {
			continue
		}
		if !v.fromALU {
			v.needGPR = true // fetch destinations land in GPRs
			continue
		}
		p := posLast[v.def]
		v.loc.slot = p.slot
		allNextBundle := true
		allSameClause := true
		for _, u := range v.uses {
			uf := posFirst[u]
			if uf.clause < 0 { // consumed by a store (or fetch coordinate)
				allNextBundle = false
				allSameClause = false
				break
			}
			ul := posLast[u]
			if uf.clause != p.clause || ul.clause != p.clause {
				allSameClause = false
			}
			if uf.clause != p.clause || uf.bundle != p.bundle+1 ||
				ul.clause != p.clause || ul.bundle != p.bundle+1 {
				allNextBundle = false
			}
		}
		switch {
		case len(v.uses) == 0:
			// Dead ALU value: no architectural storage; every lane's
			// write is discarded (PV-only destination). This must be
			// decided before the vector-transcendental case, or a dead
			// float4 rcp would pin a clause temporary with a zero-length
			// interval and then clobber it from its later lanes.
			v.loc = location{kind: locPV, chn: int(p.slot), slot: p.slot}
		case v.vectorTrans:
			// A float4 transcendental's lanes land in four bundles' PS
			// slots, so only the last lane would survive in PS; the value
			// must live in a real register. If the lanes straddled an
			// ALU clause split, clause temporaries are also out.
			if allSameClause && v.clauseFirst == v.clause {
				v.tempCand = true
			} else {
				v.needGPR = true
			}
		case allNextBundle && !opts.NoPVForwarding:
			if p.slot == isa.SlotT {
				v.loc = location{kind: locPS, slot: p.slot}
			} else {
				v.loc = location{kind: locPV, chn: int(p.slot), slot: p.slot}
			}
		case allSameClause:
			v.tempCand = true
		default:
			v.needGPR = true
		}
	}

	// Second pass: allocate clause temporaries per ALU clause with a
	// small interval scan; candidates that do not fit fall back to GPRs.
	if opts.NoClauseTemps {
		for vi := range vals {
			if vals[vi].tempCand {
				vals[vi].tempCand = false
				vals[vi].needGPR = true
			}
		}
		return
	}
	const numTemps = 2
	for ci := range clauses {
		if clauses[ci].kind != isa.ClauseALU {
			continue
		}
		freeAt := [numTemps]int{} // bundle index at which each T reg frees
		for bi := range clauses[ci].bundles {
			for _, po := range clauses[ci].bundles[bi].packed() {
				dst := k.Code[po.ilIdx].Dst
				v := &vals[dst]
				if !v.tempCand || v.clause != ci {
					continue
				}
				if v.loc.kind == locTemp {
					continue // later lane of an already-placed vector trans
				}
				lastUse := bi
				for _, u := range v.uses {
					if posLast[u].bundle > lastUse {
						lastUse = posLast[u].bundle
					}
				}
				assigned := false
				for t := 0; t < numTemps; t++ {
					if freeAt[t] <= bi {
						freeAt[t] = lastUse
						// The destination write mask is independent of
						// the issue slot, so scalar values always live in
						// the x channel of their register.
						v.loc = location{kind: locTemp, idx: t, chn: 0, slot: v.loc.slot}
						assigned = true
						break
					}
				}
				if !assigned {
					v.needGPR = true
				}
			}
		}
	}
}

// scheduleTimes assigns every IL instruction its execution window in the
// final clause schedule: fetches and exports advance time individually,
// while all ops packed into one VLIW bundle share the bundle's time. GPR
// liveness must be computed over these times, not IL order — the packer
// may co-issue an op far earlier than its position in the IL stream. A
// vector transcendental spans four bundles: it WRITES its destination
// from its first lane's time and READS its sources until its last lane's
// time, so both bounds are returned.
func scheduleTimes(k *il.Kernel, clauses []clauseDraft) (first, last []int) {
	n := len(k.Code)
	buf := make([]int, 2*n)
	first, last = buf[:n:n], buf[n:]
	for i := range first {
		first[i] = -1
	}
	t := 0
	touch := func(ii int) {
		if first[ii] < 0 {
			first[ii] = t
		}
		last[ii] = t
	}
	for ci := range clauses {
		cd := &clauses[ci]
		if cd.kind == isa.ClauseALU {
			for bi := range cd.bundles {
				for _, po := range cd.bundles[bi].packed() {
					touch(int(po.ilIdx))
				}
				t++
			}
			continue
		}
		for ii := cd.lo; ii < cd.hi; ii++ {
			touch(ii)
			t++
		}
	}
	return first, last
}

// interval is a GPR-resident value's live range in schedule time.
type interval struct {
	vi       int // value index, or -1 for the coordinate register
	def, end int
}

// active is a register held by a live interval until end.
type active struct {
	reg, end int
}

func (a active) key() int { return a.end }

// freeReg is a register number on the free list.
type freeReg int

func (r freeReg) key() int { return int(r) }

// minHeap is a binary min-heap on key(): live registers by interval end,
// free registers by number.
type minHeap[T interface{ key() int }] []T

func (h *minHeap[T]) push(x T) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].key() <= s[i].key() {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *minHeap[T]) pop() T {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].key() < s[c].key() {
			c++
		}
		if s[i].key() <= s[c].key() {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// allocateGPRs performs the linear scan over GPR-resident values and
// returns the register count (including the coordinate register, which
// is live from kernel entry through the last fetch, and is register R0 as
// in the paper's Fig. 2). first and last map IL instruction indices to
// the schedule window of their bundle placements: a value is written from
// its definition's FIRST placement and its sources are read until the
// consumer's LAST placement. Every register ever handed out is either
// live or free afterwards, so the count of registers handed out is the
// peak.
func allocateGPRs(k *il.Kernel, vals []value, first, last []int) int {
	lastFetch := -1
	for i, in := range k.Code {
		if in.Op.IsFetch() && last[i] > lastFetch {
			lastFetch = last[i]
		}
	}

	n := 1
	for vi := range vals {
		if vals[vi].def >= 0 && vals[vi].needGPR {
			n++
		}
	}
	ivs := make([]interval, 0, n)
	ivs = append(ivs, interval{vi: -1, def: -1, end: lastFetch})
	for vi := range vals {
		v := &vals[vi]
		if v.def < 0 || !v.needGPR {
			continue
		}
		def := first[v.def]
		end := def
		for _, u := range v.uses {
			if last[u] > end {
				end = last[u]
			}
		}
		ivs = append(ivs, interval{vi: vi, def: def, end: end})
	}
	// Sort by definition time: the packer may have reordered execution
	// relative to IL order.
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].def < ivs[b].def })
	live := make(minHeap[active], 0, n)
	free := make(minHeap[freeReg], 0, n)
	next := 0
	for _, iv := range ivs {
		// Expire intervals that ended at or before this definition; their
		// registers are read before the new value is written.
		for len(live) > 0 && live[0].end <= iv.def && !(live[0].end == -1 && iv.def == -1) {
			free.push(freeReg(live.pop().reg))
		}
		var reg int
		if len(free) > 0 {
			// Reuse the smallest freed register for stable numbering.
			reg = int(free.pop())
		} else {
			reg = next
			next++
		}
		live.push(active{reg, iv.end})
		if iv.vi >= 0 {
			// Scalar values occupy the x channel regardless of issue slot
			// (the destination write mask is slot-independent).
			vals[iv.vi].loc = location{kind: locGPR, idx: reg, chn: 0, slot: vals[iv.vi].loc.slot}
		}
	}
	return next
}

// srcOperand renders the location of a source value as an ISA operand for
// the given lane (0 for scalar kernels, 0..3 for float4).
func srcOperand(v *value, lane int) isa.Operand {
	switch v.loc.kind {
	case locPV:
		c := v.loc.chn
		if lane > 0 {
			c = lane
		}
		return isa.Operand{Kind: isa.KPV, Chan: c}
	case locPS:
		return isa.Operand{Kind: isa.KPS}
	case locTemp:
		c := v.loc.chn
		if lane > 0 {
			c = lane
		}
		return isa.Operand{Kind: isa.KTemp, Index: v.loc.idx, Chan: c}
	case locGPR:
		c := v.loc.chn
		if lane > 0 {
			c = lane
		}
		return isa.Operand{Kind: isa.KGPR, Index: v.loc.idx, Chan: c}
	}
	return isa.Operand{Kind: isa.KZero}
}

// dstOperand renders a destination; PV/PS-resident values write no
// architectural register (the "____" destinations of Fig. 2).
func dstOperand(v *value, lane int) isa.Operand {
	switch v.loc.kind {
	case locTemp:
		c := v.loc.chn
		if lane > 0 {
			c = lane
		}
		return isa.Operand{Kind: isa.KTemp, Index: v.loc.idx, Chan: c}
	case locGPR:
		c := v.loc.chn
		if lane > 0 {
			c = lane
		}
		return isa.Operand{Kind: isa.KGPR, Index: v.loc.idx, Chan: c}
	default:
		return isa.Operand{Kind: isa.KNone}
	}
}

func aop(op il.Opcode) isa.AOp {
	switch op {
	case il.OpAdd, il.OpAddC:
		return isa.AAdd
	case il.OpSub:
		return isa.ASub
	case il.OpMul, il.OpMulC:
		return isa.AMul
	case il.OpRcp:
		return isa.ARcp
	case il.OpRsq:
		return isa.ARsq
	default:
		return isa.AMov
	}
}

// emit produces the final ISA program from the drafts and locations. The
// program's clauses, and every clause's fetches, bundles and exports and
// every bundle's scalar ops, are sub-slices of one slab per element type.
// The slabs are counted exactly and only appended to, so they never
// regrow and the program carries no spare capacity.
func emit(k *il.Kernel, vals []value, clauses []clauseDraft, gprCount int) *isa.Program {
	const coordGPR = 0
	nFetches, nBundles, nExports, nOps := 0, 0, 0, 0
	for ci := range clauses {
		cd := &clauses[ci]
		switch cd.kind {
		case isa.ClauseTEX:
			nFetches += cd.hi - cd.lo
		case isa.ClauseALU:
			nBundles += len(cd.bundles)
			for bi := range cd.bundles {
				for _, po := range cd.bundles[bi].packed() {
					nOps += int(po.width)
				}
			}
		default:
			nExports += cd.hi - cd.lo
		}
	}
	p := &isa.Program{
		Name: k.Name, Mode: k.Mode, Type: k.Type, GPRCount: gprCount,
		Clauses: make([]isa.Clause, len(clauses)),
	}
	fetches := make([]isa.Fetch, 0, nFetches)
	bundles := make([]isa.Bundle, 0, nBundles)
	exports := make([]isa.Export, 0, nExports)
	ops := make([]isa.ScalarOp, 0, nOps)

	elem := k.Type.Bytes()
	for ci := range clauses {
		cd := &clauses[ci]
		c := &p.Clauses[ci]
		c.Kind = cd.kind
		switch cd.kind {
		case isa.ClauseTEX:
			start := len(fetches)
			for _, in := range k.Code[cd.lo:cd.hi] {
				fetches = append(fetches, isa.Fetch{
					Dst:       vals[in.Dst].loc.idx,
					Coord:     coordGPR,
					Resource:  in.Res,
					Global:    in.Op == il.OpGlobalLoad,
					ElemBytes: elem,
				})
			}
			c.Fetches = fetches[start:len(fetches):len(fetches)]
		case isa.ClauseALU:
			startBundle := len(bundles)
			for bi := range cd.bundles {
				startOp := len(ops)
				for _, po := range cd.bundles[bi].packed() {
					in := k.Code[po.ilIdx]
					dv := &vals[in.Dst]
					if po.lane >= 0 {
						// One lane of a vector transcendental on the t core.
						lane := int(po.lane)
						ops = append(ops, isa.ScalarOp{
							Slot: isa.SlotT,
							Op:   aop(in.Op),
							Dst:  dstOperand(dv, lane),
							Src0: srcOperand(&vals[in.SrcA], lane),
							Src1: isa.Operand{Kind: isa.KNone},
						})
						continue
					}
					for li := 0; li < int(po.width); li++ {
						sop := isa.ScalarOp{Slot: isa.Slot(int(po.slot) + li), Op: aop(in.Op)}
						sop.Dst = dstOperand(dv, li)
						sop.Src0 = srcOperand(&vals[in.SrcA], li)
						switch {
						case in.Op.ReadsConst():
							sop.Src1 = isa.Operand{Kind: isa.KConst, Index: in.Res, Chan: li}
						case in.SrcB != il.NoReg:
							sop.Src1 = srcOperand(&vals[in.SrcB], li)
						default:
							sop.Src1 = isa.Operand{Kind: isa.KNone}
						}
						ops = append(ops, sop)
					}
				}
				bundles = append(bundles, isa.Bundle{Ops: ops[startOp:len(ops):len(ops)]})
			}
			c.Bundles = bundles[startBundle:len(bundles):len(bundles)]
		default:
			start := len(exports)
			for _, in := range k.Code[cd.lo:cd.hi] {
				exports = append(exports, isa.Export{
					Target:    in.Res,
					Src:       vals[in.SrcA].loc.idx,
					Global:    in.Op == il.OpGlobalStore,
					ElemBytes: elem,
				})
			}
			c.Exports = exports[start:len(exports):len(exports)]
		}
	}
	return p
}
