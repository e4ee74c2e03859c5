package baseline

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"tcast/internal/idset"
	"tcast/internal/rng"
)

func randomPositives(n, x int, r *rng.Source) *idset.Dense {
	s := idset.NewDense(n)
	for _, id := range r.Sample(n, x) {
		s.Add(id)
	}
	return s
}

// full returns the dense set {0, ..., n-1}.
func full(n int) *idset.Dense {
	s := idset.NewDense(n)
	s.Fill()
	return s
}

func TestCSMAIdealCorrect(t *testing.T) {
	root := rng.New(1)
	for _, tc := range []struct{ n, th, x int }{
		{32, 8, 0}, {32, 8, 7}, {32, 8, 8}, {32, 8, 32},
		{128, 16, 15}, {128, 16, 17}, {1, 1, 1}, {1, 1, 0},
	} {
		for i := 0; i < 10; i++ {
			r := root.Split(uint64(tc.n*1000 + tc.x*10 + i))
			res := CSMA{}.Run(tc.n, tc.th, tc.x, r, nil)
			if want := tc.x >= tc.th; res.Decision != want {
				t.Fatalf("n=%d t=%d x=%d: decision %v, want %v", tc.n, tc.th, tc.x, res.Decision, want)
			}
		}
	}
}

func TestCSMAZeroPositivesIdealFree(t *testing.T) {
	r := rng.New(2)
	res := CSMA{}.Run(64, 8, 0, r, nil)
	if res.Decision || res.Slots != 0 {
		t.Fatalf("x=0 ideal: %+v", res)
	}
}

func TestCSMATrivialThresholds(t *testing.T) {
	r := rng.New(3)
	if res := (CSMA{}).Run(8, 0, 3, r, nil); !res.Decision || res.Slots != 0 {
		t.Fatalf("t=0: %+v", res)
	}
	if res := (CSMA{}).Run(8, 9, 3, r, nil); res.Decision || res.Slots != 0 {
		t.Fatalf("t>n: %+v", res)
	}
}

func TestCSMACostGrowsWithX(t *testing.T) {
	// Fig 1: "CSMA cost increases proportional to x".
	root := rng.New(4)
	avg := func(x int) float64 {
		total := 0
		const runs = 300
		for i := 0; i < runs; i++ {
			r := root.Split(uint64(x*1000 + i))
			// High threshold so every reply must be collected.
			res := CSMA{}.Run(128, 128, x, r, nil)
			total += res.Slots
		}
		return float64(total) / runs
	}
	c8, c32, c96 := avg(8), avg(32), avg(96)
	if !(c8 < c32 && c32 < c96) {
		t.Fatalf("CSMA cost not increasing: %v, %v, %v", c8, c32, c96)
	}
	// Superlinearity head-room: at least linear growth.
	if c96 < 2.5*c32/(32.0/96.0)/10 { // sanity floor, avoids flakiness
		t.Fatalf("implausible CSMA costs: %v %v %v", c8, c32, c96)
	}
}

func TestCSMAEarlyStopAtThreshold(t *testing.T) {
	// With x >> t the initiator stops at the t-th delivery: cost must be
	// far below the full-collection cost.
	root := rng.New(5)
	const runs = 200
	var early, full int
	for i := 0; i < runs; i++ {
		r := root.Split(uint64(i))
		early += CSMA{}.Run(128, 8, 100, r.Split(1), nil).Slots
		full += CSMA{}.Run(128, 100, 100, r.Split(2), nil).Slots
	}
	if early >= full/2 {
		t.Fatalf("early stop not effective: early=%d full=%d", early, full)
	}
}

func TestCSMADeliveredAndCollisions(t *testing.T) {
	r := rng.New(6)
	res := CSMA{}.Run(64, 64, 20, r, nil)
	if res.Delivered != 20 {
		t.Fatalf("Delivered = %d, want 20", res.Delivered)
	}
	if res.Slots < 20 {
		t.Fatalf("Slots = %d < deliveries", res.Slots)
	}
}

func TestCSMAGuardTermination(t *testing.T) {
	// A generous guard gives correct decisions and costs at least the
	// guard on the "false" side.
	root := rng.New(7)
	for i := 0; i < 30; i++ {
		r := root.Split(uint64(i))
		res := CSMA{GuardSlots: 256}.Run(64, 8, 3, r, nil)
		if res.Decision {
			t.Fatalf("trial %d: guard termination decided true with x=3 < t=8", i)
		}
		if res.Slots < 256 {
			t.Fatalf("trial %d: guard fired after %d slots", i, res.Slots)
		}
	}
}

// TestCSMAGuardCanBeFooled pins the paper's claim that under CSMA "it is
// impossible to tell whether x > t or x < t holds with certainty": with
// x = 10 ≥ t = 8, a guard of 8 idle slots fires while stations are
// still backed off after collisions, and the initiator answers "x < t".
// On the same draw, idealized termination (GuardSlots 0) waits for the
// t-th reply and answers true.
func TestCSMAGuardCanBeFooled(t *testing.T) {
	const n, th, x, seed = 64, 8, 10, 6
	guarded := CSMA{GuardSlots: 8}.Run(n, th, x, rng.New(seed), nil)
	if guarded.Decision || guarded.Delivered >= th {
		t.Fatalf("guard 8: %+v, want a false answer before %d deliveries", guarded, th)
	}
	ideal := CSMA{}.Run(n, th, x, rng.New(seed), nil)
	if !ideal.Decision || ideal.Slots <= guarded.Slots {
		t.Fatalf("guard 0: %+v, want true after more than the guarded %d slots", ideal, guarded.Slots)
	}
}

func TestCSMAGuardZeroPositivesCostsGuard(t *testing.T) {
	r := rng.New(8)
	res := CSMA{GuardSlots: 32}.Run(64, 8, 0, r, nil)
	if res.Decision || res.Slots != 32 {
		t.Fatalf("guard idle cost: %+v", res)
	}
}

func TestQuickCSMAIdealAlwaysCorrect(t *testing.T) {
	f := func(seed uint64, nRaw, tRaw, xRaw uint8) bool {
		n := int(nRaw%64) + 1
		th := int(tRaw) % (n + 2)
		x := int(xRaw) % (n + 1)
		r := rng.New(seed)
		res := CSMA{}.Run(n, th, x, r, nil)
		return res.Decision == (x >= th)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// slotLoopCSMA is the reference CSMA session: the slot-by-slot
// simulation the calendar wheel replaced. Every slot scans the whole
// backlog, idle slots decrement every counter, and colliding stations
// redraw in backlog order.
func slotLoopCSMA(c CSMA, n, t, x int, r *rng.Source) Result {
	if t <= 0 {
		return Result{Decision: true}
	}
	if t > n {
		return Result{Decision: false}
	}
	type station struct {
		cw      int
		counter int
	}
	backlog := make([]*station, 0, x)
	for i := 0; i < x; i++ {
		backlog = append(backlog, &station{cw: cwMin, counter: r.Intn(cwMin)})
	}
	var res Result
	idleRun := 0
	for {
		if res.Delivered >= t {
			res.Decision = true
			return res
		}
		if c.GuardSlots == 0 {
			if len(backlog) == 0 {
				return res
			}
		} else if idleRun >= c.GuardSlots {
			return res
		}
		res.Slots++
		var transmit []*station
		for _, s := range backlog {
			if s.counter == 0 {
				transmit = append(transmit, s)
			}
		}
		switch len(transmit) {
		case 0:
			idleRun++
			for _, s := range backlog {
				s.counter--
			}
		case 1:
			idleRun = 0
			if c.Drop == nil || !c.Drop(res.Slots) {
				res.Delivered++
			} else {
				res.Dropped++
			}
			kept := backlog[:0]
			for _, s := range backlog {
				if s != transmit[0] {
					kept = append(kept, s)
				}
			}
			backlog = kept
		default:
			idleRun = 0
			res.Collisions++
			for _, s := range transmit {
				s.cw = min(2*s.cw, cwMax)
				s.counter = r.Intn(s.cw)
			}
		}
	}
}

// seededDrop returns a Drop hook that loses each reply with probability
// p from its own stream, and records the slot numbers it was asked about.
func seededDrop(seed uint64, p float64, asked *[]int) func(int) bool {
	r := rng.New(seed)
	return func(slot int) bool {
		*asked = append(*asked, slot)
		return r.Bernoulli(p)
	}
}

// wheelScratch is the one Scratch every wheel run of the oracle checks
// shares, so each run starts from the stale state of the one before.
var wheelScratch Scratch

// checkCSMAMatchesSlotLoop runs the wheel and the reference loop from the
// same seed and reports the first difference: a Result field, the slots
// Drop was consulted on, or the stream position afterwards.
func checkCSMAMatchesSlotLoop(seed uint64, n, th, x, guard int, dropP float64) string {
	var askedWheel, askedRef []int
	wheel, ref := CSMA{GuardSlots: guard}, CSMA{GuardSlots: guard}
	if dropP > 0 {
		wheel.Drop = seededDrop(seed^0x5eed, dropP, &askedWheel)
		ref.Drop = seededDrop(seed^0x5eed, dropP, &askedRef)
	}
	rw, rr := rng.New(seed), rng.New(seed)
	got := wheel.Run(n, th, x, rw, &wheelScratch)
	want := slotLoopCSMA(ref, n, th, x, rr)
	if got.Decision != want.Decision || got.Slots != want.Slots ||
		got.Delivered != want.Delivered || got.Collisions != want.Collisions ||
		got.Dropped != want.Dropped || got.Order != nil {
		return fmt.Sprintf("result %+v, want %+v", got, want)
	}
	if len(askedWheel) != len(askedRef) {
		return fmt.Sprintf("Drop asked %d times, want %d", len(askedWheel), len(askedRef))
	}
	for i := range askedRef {
		if askedWheel[i] != askedRef[i] {
			return fmt.Sprintf("Drop call %d saw slot %d, want %d", i, askedWheel[i], askedRef[i])
		}
	}
	if a, b := rw.Uint64(), rr.Uint64(); a != b {
		return "stream position differs after the session"
	}
	return ""
}

// guards covers idealized termination, the tightest realistic guard,
// ext-faults' 48 and guards beyond cwMax, where idle runs cross the
// whole wheel.
var guards = []int{0, 1, 2, 7, 48, 127, 128, 129, 256, 1000}

func TestQuickCSMAMatchesSlotLoop(t *testing.T) {
	f := func(seed uint64, nRaw, tRaw, xRaw, gSel, dSel uint8) bool {
		n := int(nRaw%160) + 1
		th := int(tRaw) % (n + 2)
		x := int(xRaw) % (n + 1)
		guard := guards[int(gSel)%len(guards)]
		dropP := []float64{0, 0, 0.1, 0.5, 1}[dSel%5]
		if dropP > 0 && guard == 0 && dSel%2 == 0 {
			guard = 48 // ext-faults pairs Drop with guard 48
		}
		if diff := checkCSMAMatchesSlotLoop(seed, n, th, x, guard, dropP); diff != "" {
			t.Logf("seed=%d n=%d t=%d x=%d guard=%d drop=%v: %s", seed, n, th, x, guard, dropP, diff)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func FuzzCSMAMatchesSlotLoop(f *testing.F) {
	f.Add(uint64(1), 128, 16, 32, 0, uint8(0))
	f.Add(uint64(2), 128, 16, 100, 48, uint8(30))
	f.Add(uint64(3), 64, 64, 64, 1, uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, n, th, x, guard int, drop uint8) {
		// Keep sessions small: the reference loop is O(backlog) a slot.
		n = 1 + fold(n, 300)
		th = fold(th, n+2)
		x = fold(x, n+1)
		guard = fold(guard, 600)
		dropP := float64(drop) / 255
		if diff := checkCSMAMatchesSlotLoop(seed, n, th, x, guard, dropP); diff != "" {
			t.Fatalf("n=%d t=%d x=%d guard=%d drop=%v: %s", n, th, x, guard, dropP, diff)
		}
	})
}

// fold maps any int onto [0, m).
func fold(v, m int) int { return int(uint(v) % uint(m)) }

// A session allocates its flat station arrays once; nothing per slot or
// per station, so the count does not grow with the backlog.
func TestCSMAAllocsFlatInX(t *testing.T) {
	allocs := func(x int) float64 {
		r := rng.New(1)
		return testing.AllocsPerRun(50, func() {
			CSMA{}.Run(128, 128, x, r, nil)
		})
	}
	small, large := allocs(4), allocs(128)
	if large > small {
		t.Fatalf("CSMA.Run allocations grow with x: %v at x=4, %v at x=128", small, large)
	}
}

// TestScratchReuse: runs on one reused Scratch draw and decide exactly
// as runs on fresh buffers, and once warm allocate nothing.
func TestScratchReuse(t *testing.T) {
	var sc Scratch
	root := rng.New(21)
	for i := 0; i < 200; i++ {
		n := 1 + i%130
		x, th := (i*7)%(n+1), 1+(i*5)%n
		pos := randomPositives(n, x, root.Split(uint64(i)))
		fresh := Sequential{}.Run(n, th, pos, root.Split(uint64(i)+1000), nil)
		reused := Sequential{}.Run(n, th, pos, root.Split(uint64(i)+1000), &sc)
		if fresh.Decision != reused.Decision || fresh.Slots != reused.Slots ||
			fresh.Delivered != reused.Delivered || !slices.Equal(fresh.Order, reused.Order) {
			t.Fatalf("sequential n=%d t=%d x=%d: reused %+v, fresh %+v", n, th, x, reused, fresh)
		}
		if a, b := (CSMA{}).Run(n, th, x, root.Split(uint64(i)+2000), nil),
			(CSMA{}).Run(n, th, x, root.Split(uint64(i)+2000), &sc); a.Slots != b.Slots ||
			a.Delivered != b.Delivered || a.Collisions != b.Collisions || a.Decision != b.Decision {
			t.Fatalf("csma n=%d t=%d x=%d: reused %+v, fresh %+v", n, th, x, b, a)
		}
	}
	pos := randomPositives(128, 32, rng.New(1))
	r := rng.New(2)
	if allocs := testing.AllocsPerRun(50, func() { Sequential{}.Run(128, 16, pos, r, &sc) }); allocs != 0 {
		t.Errorf("warm Sequential.Run: %v allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { CSMA{}.Run(128, 16, 32, r, &sc) }); allocs != 0 {
		t.Errorf("warm CSMA.Run: %v allocs, want 0", allocs)
	}
}

func TestSequentialCorrect(t *testing.T) {
	root := rng.New(10)
	for _, tc := range []struct{ n, th, x int }{
		{32, 8, 0}, {32, 8, 7}, {32, 8, 8}, {32, 8, 32},
		{128, 16, 15}, {128, 16, 17}, {1, 1, 1}, {1, 1, 0},
	} {
		for i := 0; i < 10; i++ {
			r := root.Split(uint64(tc.n*1000 + tc.x*10 + i))
			res := Sequential{}.Run(tc.n, tc.th, randomPositives(tc.n, tc.x, r), r, nil)
			if want := tc.x >= tc.th; res.Decision != want {
				t.Fatalf("n=%d t=%d x=%d: decision %v", tc.n, tc.th, tc.x, res.Decision)
			}
		}
	}
}

func TestSequentialZeroPositivesCost(t *testing.T) {
	// x=0: "false" resolves once the remaining slots cannot reach t:
	// exactly n-t+1 slots.
	r := rng.New(11)
	res := Sequential{}.Run(128, 16, idset.NewDense(128), r, nil)
	if res.Decision || res.Slots != 128-16+1 {
		t.Fatalf("x=0: %+v, want slots=%d", res, 128-16+1)
	}
}

func TestSequentialAllPositiveCost(t *testing.T) {
	// x=n: the t-th slot delivers the t-th positive.
	r := rng.New(12)
	res := Sequential{}.Run(128, 16, full(128), r, nil)
	if !res.Decision || res.Slots != 16 {
		t.Fatalf("x=n: %+v, want slots=16", res)
	}
}

func TestSequentialLargeCostForSmallX(t *testing.T) {
	// Fig 1: sequential "starts with a large cost overhead
	// (approximately n−x) for x << t".
	root := rng.New(13)
	const n, th, x, runs = 128, 16, 2, 200
	total := 0
	for i := 0; i < runs; i++ {
		r := root.Split(uint64(i))
		total += Sequential{}.Run(n, th, randomPositives(n, x, r), r, nil).Slots
	}
	avg := float64(total) / runs
	if avg < float64(n)-float64(th)-float64(x)-5 {
		t.Fatalf("sequential avg %v implausibly cheap for x<<t", avg)
	}
}

func TestSequentialTrivialThresholds(t *testing.T) {
	r := rng.New(15)
	if res := (Sequential{}).Run(8, 0, idset.NewDense(8), r, nil); !res.Decision || res.Slots != 0 {
		t.Fatalf("t=0: %+v", res)
	}
	if res := (Sequential{}).Run(8, 9, full(8), r, nil); res.Decision || res.Slots != 0 {
		t.Fatalf("t>n: %+v", res)
	}
}

func TestQuickSequentialAlwaysCorrect(t *testing.T) {
	f := func(seed uint64, nRaw, tRaw, xRaw uint8) bool {
		n := int(nRaw%64) + 1
		th := int(tRaw) % (n + 2)
		x := int(xRaw) % (n + 1)
		r := rng.New(seed)
		res := Sequential{}.Run(n, th, randomPositives(n, x, r), r, nil)
		return res.Decision == (x >= th)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSequentialSlotsBounded(t *testing.T) {
	f := func(seed uint64, xRaw uint8) bool {
		const n, th = 64, 8
		x := int(xRaw) % (n + 1)
		r := rng.New(seed)
		res := Sequential{}.Run(n, th, randomPositives(n, x, r), r, nil)
		return res.Slots >= 1 && res.Slots <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCSMA(b *testing.B) {
	root := rng.New(1)
	for i := 0; i < b.N; i++ {
		r := root.Split(uint64(i))
		CSMA{}.Run(128, 16, 32, r, nil)
	}
}

func BenchmarkSequential(b *testing.B) {
	root := rng.New(1)
	for i := 0; i < b.N; i++ {
		r := root.Split(uint64(i))
		Sequential{}.Run(128, 16, randomPositives(128, 32, r), r, nil)
	}
}
