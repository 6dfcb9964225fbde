package harness

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Operation classes. Latency is reported per class; "explore" is the
// box-less heat-map request the SPATE-UI issues on load, kept apart from the
// boxed one because their answers differ in size by two orders of magnitude.
const (
	ClassExplore    = "explore"
	ClassExploreBox = "explore-box"
	ClassT1         = "t1"      // one epoch of upflux/downflux
	ClassT2         = "t2"      // a range of upflux/downflux
	ClassT2Sel      = "t2sel"   // T2 with a selective predicate
	ClassFullRow    = "fullrow" // SELECT * over a short range
	ClassT3         = "t3"      // per-cell aggregate
	ClassT4         = "t4"      // self-join
	ClassAppend     = "append"
)

// ReadClasses lists every read class in reporting order.
var ReadClasses = []string{ClassExplore, ClassExploreBox, ClassT1, ClassT2, ClassT2Sel, ClassFullRow, ClassT3, ClassT4}

// IsSQL reports whether the class goes through /api/sql.
func IsSQL(class string) bool {
	switch class {
	case ClassT1, ClassT2, ClassT2Sel, ClassFullRow, ClassT3, ClassT4:
		return true
	}
	return false
}

// SelDuration is the threshold of the selective T2 predicate
// (duration > SelDuration keeps roughly one CDR row in ten).
const SelDuration = 300

// Plane is the extent of the cell plane in km (the map the UI draws).
const (
	PlaneW = 80.0
	PlaneH = 75.0
)

// Op is one request of a workload, in a form both the HTTP driver and the
// in-process traced run can execute.
type Op struct {
	Class    string
	From, To time.Time
	Box      [4]float64 // minx, miny, maxx, maxy; used when HasBox
	HasBox   bool
	Attr     string // explore attr= (fixes which per-cell value is returned)
}

// SQL renders the statement of a SQL-class op.
func (o Op) SQL() string {
	f, t := o.From.Format(TimeLayout), o.To.Format(TimeLayout)
	switch o.Class {
	case ClassT1, ClassT2:
		return fmt.Sprintf("SELECT upflux, downflux FROM CDR WHERE ts >= '%s' AND ts < '%s'", f, t)
	case ClassT2Sel:
		return fmt.Sprintf("SELECT upflux, downflux FROM CDR WHERE ts >= '%s' AND ts < '%s' AND duration > %d", f, t, SelDuration)
	case ClassFullRow:
		return fmt.Sprintf("SELECT * FROM CDR WHERE ts >= '%s' AND ts < '%s'", f, t)
	case ClassT3:
		return fmt.Sprintf("SELECT cell_id, SUM(drop_calls) AS drops, SUM(call_attempts) AS attempts FROM NMS WHERE ts >= '%s' AND ts < '%s' GROUP BY cell_id ORDER BY cell_id", f, t)
	case ClassT4:
		return fmt.Sprintf("SELECT DISTINCT a.caller FROM CDR a JOIN CDR b ON a.caller = b.caller WHERE a.cell_id != b.cell_id AND a.ts >= '%s' AND a.ts < '%s' AND b.ts >= '%s' AND b.ts < '%s' ORDER BY a.caller", f, t, f, t)
	}
	return ""
}

// Path renders the request path and query of a read op.
func (o Op) Path() string {
	if IsSQL(o.Class) {
		return "/api/sql?q=" + url.QueryEscape(o.SQL())
	}
	p := "/api/explore?from=" + o.From.Format(TimeLayout) + "&to=" + o.To.Format(TimeLayout)
	if o.HasBox {
		for i, k := range []string{"minx", "miny", "maxx", "maxy"} {
			p += "&" + k + "=" + strconv.FormatFloat(o.Box[i], 'f', 3, 64)
		}
	}
	if o.Attr != "" {
		p += "&attr=" + url.QueryEscape(o.Attr)
	}
	return p
}

// Key identifies an op's inputs; two ops with one key are the same request.
func (o Op) Key() string { return o.Class + " " + o.Path() }

// Shape fixes the window length of each class in a workload. One length per
// class keeps a class's latency distribution single-peaked, so its median
// does not depend on which windows a seed happened to draw.
type Shape map[string]time.Duration

// Point is a cell's location on the plane, in km.
type Point struct{ X, Y float64 }

// gen draws the ops of one list. Window positions follow one additive
// low-discrepancy sequence per class (start + k·φ mod 1, the seed choosing
// the start): traffic has a strong daily rhythm, a night window costs a
// third of a day window, and an evenly spread sequence keeps every stretch
// of the list — whatever its length — at the same mix of hours, where
// independent draws would make a class's median depend on the seed.
type gen struct {
	r        *rand.Rand
	from, to time.Time
	shape    Shape
	cells    []Point
	straddle bool
	origin   float64            // where the classes' sequences start from
	u        map[string]float64 // each class's next sequence value
	seen     map[string]bool
}

func newGen(seed int64, from, to time.Time, shape Shape, cells []Point, straddle bool) *gen {
	r := rand.New(rand.NewSource(seed))
	return &gen{r: r, from: from, to: to, shape: shape, cells: cells, straddle: straddle,
		origin: r.Float64(), u: make(map[string]float64), seen: make(map[string]bool)}
}

// next returns the class's next sequence value in [0, 1). The classes'
// sequences start a fixed distance apart, behind one seeded origin: how
// often a class's windows fall near another's, and so find its chunks
// cached, is then the same for every seed.
func (g *gen) next(class string) float64 {
	u, ok := g.u[class]
	if !ok {
		for i, c := range ReadClasses {
			if c == class {
				u = g.origin + float64(i)*math.Sqrt2
				u -= math.Floor(u)
			}
		}
	}
	v := u + 0.6180339887498949
	g.u[class] = v - math.Floor(v)
	return u
}

// window places an unaligned (whole-minute) window of the class's length
// inside the trace. With straddle set it lies across a day boundary, so
// that a day-sharded cluster answers it from two shards.
func (g *gen) window(class string) (time.Time, time.Time) {
	d := g.shape[class]
	u := g.next(class)
	if g.straddle {
		var mids []time.Time
		for m := g.from.Truncate(24 * time.Hour).Add(24 * time.Hour); m.Before(g.to); m = m.Add(24 * time.Hour) {
			mids = append(mids, m)
		}
		if len(mids) > 0 {
			x := u * float64(len(mids))
			m := mids[int(x)]
			// Half the window lies before midnight, give or take up to
			// half an hour: evening and night cost differently, and a
			// window's cost should not depend on where the seed put it.
			before := (d/2 + time.Duration((x-math.Floor(x)-0.5)*float64(time.Hour))).Truncate(time.Minute)
			return m.Add(-before), m.Add(d - before)
		}
	}
	slack := int(g.to.Sub(g.from)/time.Minute) - int(d/time.Minute)
	off := 0
	if slack > 0 {
		off = int(u * float64(slack+1))
	}
	a := g.from.Add(time.Duration(off) * time.Minute)
	return a, a.Add(d)
}

// epoch places one whole epoch inside the trace.
func (g *gen) epoch(class string) (time.Time, time.Time) {
	n := int(g.to.Sub(g.from) / EpochLen)
	a := g.from.Add(time.Duration(int(g.next(class)*float64(n))) * EpochLen)
	return a, a.Add(EpochLen)
}

// BoxShare is the share of the cells a boxed exploration selects.
const BoxShare = 0.10

// box draws a box of a tenth of the plane holding about a tenth of the
// cells. Cells cluster around towns, so boxes of one area differ several
// times over in what they select; the answer's size, and with it the
// request's cost, would follow the seed. Of 64 candidates the one closest to
// the target count is kept.
func (g *gen) box() [4]float64 {
	s := math.Sqrt(BoxShare)
	w, h := PlaneW*s, PlaneH*s
	target := BoxShare * float64(len(g.cells))
	var best [4]float64
	bestMiss := math.Inf(1)
	for try := 0; try < 64; try++ {
		x, y := g.r.Float64()*(PlaneW-w), g.r.Float64()*(PlaneH-h)
		b := [4]float64{x, y, x + w, y + h}
		n := 0
		for _, c := range g.cells {
			if c.X >= b[0] && c.X <= b[2] && c.Y >= b[1] && c.Y <= b[3] {
				n++
			}
		}
		if miss := math.Abs(float64(n) - target); miss < bestMiss {
			best, bestMiss = b, miss
		}
		if len(g.cells) == 0 || bestMiss <= 0.05*target {
			break
		}
	}
	return best
}

var exploreAttrs = []string{"CDR.downflux", "CDR.upflux", "NMS.drop_calls"}

// op draws the class's next op. An exploration does not repeat one drawn
// before by this generator, unless eight draws in a row all did: a short
// trace has only so many whole-minute windows.
func (g *gen) op(class string) Op {
	for try := 0; ; try++ {
		op := Op{Class: class}
		if class == ClassT1 {
			op.From, op.To = g.epoch(class)
		} else {
			op.From, op.To = g.window(class)
		}
		if IsSQL(class) {
			return op
		}
		if class == ClassExploreBox {
			op.Box, op.HasBox = g.box(), true
		}
		op.Attr = exploreAttrs[g.r.Intn(len(exploreAttrs))]
		if !g.seen[op.Key()] || try == 8 {
			g.seen[op.Key()] = true
			return op
		}
	}
}

// fixedSet draws n distinct explore queries, alternating box-less and boxed
// by rank so that the share of each under a zipf draw does not depend on the
// seed.
func (g *gen) fixedSet(n int) []Op {
	out := make([]Op, n)
	for i := range out {
		class := ClassExplore
		if i%2 == 1 {
			class = ClassExploreBox
		}
		out[i] = g.op(class)
	}
	return out
}

// MixBlock is the class of each op in one block of a mix; every block of a
// generated list holds exactly these classes, in a seeded order, so any
// stretch of the list carries the same proportions.
type MixBlock []string

// mixed generates n ops in blocks of mix. With a fixed set, explorations
// are drawn from it by zipf (rank 0 the hottest); without one every
// exploration is new, so none can be answered from the result cache. SQL
// windows are free to repeat: SQL answers are not cached.
func (g *gen) mixed(n int, mix MixBlock, fixed []Op, zipfS float64) []Op {
	var z *rand.Zipf
	if len(fixed) > 0 {
		z = rand.NewZipf(g.r, zipfS, 1, uint64(len(fixed)-1))
	}
	out := make([]Op, 0, n+len(mix))
	for len(out) < n {
		for _, i := range g.r.Perm(len(mix)) {
			class := mix[i]
			if z != nil && !IsSQL(class) {
				out = append(out, fixed[z.Uint64()])
				continue
			}
			out = append(out, g.op(class))
		}
	}
	return out[:n]
}

// Workload names.
const (
	ExploreHot  = "explore-hot"
	ScanCold    = "scan-cold"
	StreamMixed = "stream-mixed"
	ClusterMix  = "cluster-mix"
)

// Workloads lists the workloads in running order.
var Workloads = []string{ExploreHot, ScanCold, StreamMixed, ClusterMix}

// Spec is everything about a workload that does not depend on the seed.
type Spec struct {
	Name string
	// GenScale and GenDays are the spate-gen arguments of the trace.
	GenScale float64
	GenDays  int
	// ServerArgs are the spate-server flags besides -addr and -trace.
	ServerArgs []string
	// BaseEpochs is how many leading epochs the server ingests at start
	// when the rest of the trace is fed through /api/append (0 = all).
	BaseEpochs int
	Mix        MixBlock
	Shape      Shape
	// FixedQueries is the size of the fixed explore query set (0 = fresh
	// windows on every op); ZipfS its popularity exponent.
	FixedQueries int
	ZipfS        float64
	// Straddle lays every window across a day boundary.
	Straddle bool
	// Prefill sends every fixed query once before the warm-up, so that the
	// result cache holds the whole set when timing starts.
	Prefill bool
	// Setups is how many times a run boots the server to take the median
	// set-up time.
	Setups int
	// Warmup is the closed-loop load before the timed window.
	Warmup time.Duration
}

// Flag looks name up among the server flags: its value ("" for a switch)
// and whether it is set. The traced run assembles its in-process stack from
// the same flags the end-to-end run starts spate-server with.
func (s Spec) Flag(name string) (string, bool) {
	for i, a := range s.ServerArgs {
		if a == name {
			if i+1 < len(s.ServerArgs) && !strings.HasPrefix(s.ServerArgs[i+1], "-") {
				return s.ServerArgs[i+1], true
			}
			return "", true
		}
	}
	return "", false
}

const h = time.Hour

// Specs returns the four workloads. With quick set the traces shrink to
// smoke-test size; quick numbers are never used for claims.
func Specs(quick bool) map[string]Spec {
	s := map[string]Spec{
		ExploreHot: {
			Name: ExploreHot, GenScale: 0.02, GenDays: 2,
			ServerArgs:   []string{"-result-cache-bytes", "67108864", "-rps", "100000", "-max-concurrent", "64"},
			Mix:          MixBlock{ClassExplore},
			Shape:        Shape{ClassExplore: 3 * h, ClassExploreBox: 3 * h},
			FixedQueries: 64, ZipfS: 1.2, Prefill: true, Setups: 3,
		},
		ScanCold: {
			Name: ScanCold, GenScale: 0.1, GenDays: 7,
			Mix: MixBlock{ClassExplore, ClassExplore, ClassExploreBox, ClassT1, ClassT2, ClassT2Sel,
				ClassFullRow, ClassT3, ClassT3, ClassT4},
			Shape: Shape{ClassExplore: 1 * h, ClassExploreBox: 1 * h, ClassT2: 1 * h, ClassT2Sel: 2 * h,
				ClassFullRow: 30 * time.Minute, ClassT3: 3 * h, ClassT4: 2 * time.Minute},
			Setups: 1,
		},
		StreamMixed: {
			Name: StreamMixed, GenScale: 0.1, GenDays: 2,
			ServerArgs: []string{"-stream"},
			BaseEpochs: 4,
			Mix:        MixBlock{ClassExplore, ClassExplore, ClassT1, ClassT3},
			Shape:      Shape{ClassExplore: 2 * h, ClassT3: 3 * h},
			Setups:     3,
		},
		ClusterMix: {
			Name: ClusterMix, GenScale: 0.02, GenDays: 4,
			ServerArgs:   []string{"-cluster", "-shards", "4", "-replicas", "1"},
			Mix:          MixBlock{ClassExplore, ClassExplore, ClassT2, ClassT3},
			Shape:        Shape{ClassExplore: 6 * h, ClassExploreBox: 6 * h, ClassT2: 3 * h, ClassT3: 12 * h},
			FixedQueries: 128, ZipfS: 1.2, Straddle: true, Setups: 1,
		},
	}
	for k, v := range s {
		v.Warmup = 2 * time.Second
		s[k] = v
	}
	if quick {
		for k, v := range s {
			v.Setups, v.Warmup = 1, time.Second
			switch k {
			case ScanCold:
				v.GenScale, v.GenDays = 0.02, 2
			case StreamMixed:
				v.GenScale, v.GenDays = 0.05, 1
			}
			s[k] = v
		}
	}
	return s
}

// Ops generates the workload's fixed explore query set (nil when it has
// none) and its read-op list from the seed: n ops over the trace span
// [from, to), boxes fitted to the cell locations. For stream-mixed only the
// classes matter — the reader resolves each window against the writer's
// progress when it sends.
func (s Spec) Ops(seed int64, n int, from, to time.Time, cells []Point) (fixed, ops []Op) {
	g := newGen(seed, from, to, s.Shape, cells, s.Straddle)
	if s.FixedQueries > 0 {
		fixed = g.fixedSet(s.FixedQueries)
	}
	return fixed, g.mixed(n, s.Mix, fixed, s.ZipfS)
}
