package harness

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// TimeLayout is the trace's wire timestamp layout (UTC).
const TimeLayout = "20060102150405"

// EpochLen is the snapshot period of a trace directory.
const EpochLen = 30 * time.Minute

// CDRRow and NMSRow carry the columns the benchmark's queries touch.
type CDRRow struct {
	TS             int64 // unix seconds
	Cell           int64
	Duration       int64
	Upflux, Downfl int64
	Caller         string
}

type NMSRow struct {
	TS              int64
	Cell            int64
	Drops, Attempts int64
}

// Oracle answers the benchmark's query classes by scanning the flat text
// trace the driver generated — the "scan the text" system every answer of
// the program under test is compared with. Rows are kept sorted by
// timestamp; windows are half-open [from, to).
type Oracle struct {
	Epochs   []time.Time // epoch starts, ascending
	CDR      []CDRRow
	NMS      []NMSRow
	RawBytes int64 // text bytes of the CDR and NMS files loaded

	upSum, downSum []int64 // prefix sums over CDR
}

// ListEpochs returns the epoch directories of a trace in order.
func ListEpochs(root string) ([]time.Time, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var out []time.Time
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if t, err := time.ParseInLocation(TimeLayout, e.Name(), time.UTC); err == nil {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out, nil
}

// LoadOracle reads the given epochs of the trace under root.
func LoadOracle(root string, epochs []time.Time) (*Oracle, error) {
	o := &Oracle{Epochs: epochs}
	for _, e := range epochs {
		dir := filepath.Join(root, e.Format(TimeLayout))
		if err := o.loadFile(filepath.Join(dir, "CDR"), true); err != nil {
			return nil, err
		}
		if err := o.loadFile(filepath.Join(dir, "NMS"), false); err != nil {
			return nil, err
		}
	}
	o.finish()
	return o, nil
}

func (o *Oracle) finish() {
	sort.SliceStable(o.CDR, func(i, j int) bool { return o.CDR[i].TS < o.CDR[j].TS })
	sort.SliceStable(o.NMS, func(i, j int) bool { return o.NMS[i].TS < o.NMS[j].TS })
	o.upSum = make([]int64, len(o.CDR)+1)
	o.downSum = make([]int64, len(o.CDR)+1)
	for i, r := range o.CDR {
		o.upSum[i+1] = o.upSum[i] + r.Upflux
		o.downSum[i+1] = o.downSum[i] + r.Downfl
	}
}

func (o *Oracle) loadFile(path string, cdr bool) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // table absent for this epoch
		}
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Bytes()
		o.RawBytes += int64(len(line)) + 1
		if cdr {
			r, err := ParseCDR(line)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			o.CDR = append(o.CDR, r)
		} else {
			r, err := ParseNMS(line)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			o.NMS = append(o.NMS, r)
		}
	}
	return sc.Err()
}

// fields cuts the first n '|'-separated fields of a wire line. The leading
// columns of CDR and NMS are numbers and short enums, which the wire format
// never escapes.
func fields(line []byte, n int) ([][]byte, error) {
	out := make([][]byte, 0, n)
	for len(out) < n {
		i := bytes.IndexByte(line, '|')
		if i < 0 {
			out = append(out, line)
			break
		}
		out = append(out, line[:i])
		line = line[i+1:]
	}
	if len(out) < n {
		return nil, fmt.Errorf("line has %d fields, want at least %d", len(out), n)
	}
	return out, nil
}

func parseTS(b []byte) (int64, error) {
	t, err := time.ParseInLocation(TimeLayout, string(b), time.UTC)
	if err != nil {
		return 0, err
	}
	return t.Unix(), nil
}

func atoi(b []byte) (int64, error) { return strconv.ParseInt(string(b), 10, 64) }

// ParseCDR reads ts, caller, cell_id, duration, upflux and downflux (columns
// 0, 1, 3, 5, 6, 7) of a CDR wire line.
func ParseCDR(line []byte) (CDRRow, error) {
	f, err := fields(line, 8)
	if err != nil {
		return CDRRow{}, err
	}
	var r CDRRow
	if r.TS, err = parseTS(f[0]); err != nil {
		return r, err
	}
	r.Caller = string(f[1])
	if r.Cell, err = atoi(f[3]); err != nil {
		return r, err
	}
	if r.Duration, err = atoi(f[5]); err != nil {
		return r, err
	}
	if r.Upflux, err = atoi(f[6]); err != nil {
		return r, err
	}
	r.Downfl, err = atoi(f[7])
	return r, err
}

// ParseNMS reads ts, cell_id, drop_calls and call_attempts (columns 0–3) of
// an NMS wire line.
func ParseNMS(line []byte) (NMSRow, error) {
	f, err := fields(line, 4)
	if err != nil {
		return NMSRow{}, err
	}
	var r NMSRow
	if r.TS, err = parseTS(f[0]); err != nil {
		return r, err
	}
	if r.Cell, err = atoi(f[1]); err != nil {
		return r, err
	}
	if r.Drops, err = atoi(f[2]); err != nil {
		return r, err
	}
	r.Attempts, err = atoi(f[3])
	return r, err
}

func (o *Oracle) cdrRange(from, to time.Time) (lo, hi int) {
	a, b := from.Unix(), to.Unix()
	lo = sort.Search(len(o.CDR), func(i int) bool { return o.CDR[i].TS >= a })
	hi = sort.Search(len(o.CDR), func(i int) bool { return o.CDR[i].TS >= b })
	return lo, hi
}

func (o *Oracle) nmsRange(from, to time.Time) (lo, hi int) {
	a, b := from.Unix(), to.Unix()
	lo = sort.Search(len(o.NMS), func(i int) bool { return o.NMS[i].TS >= a })
	hi = sort.Search(len(o.NMS), func(i int) bool { return o.NMS[i].TS >= b })
	return lo, hi
}

// Flux is the answer to a T1/T2 query: matching CDR rows and their flux sums.
type Flux struct{ Rows, Up, Down int64 }

// CDRFlux answers SELECT upflux, downflux FROM CDR over the window, keeping
// only rows with duration > minDuration when minDuration >= 0.
func (o *Oracle) CDRFlux(from, to time.Time, minDuration int64) Flux {
	lo, hi := o.cdrRange(from, to)
	if minDuration < 0 {
		return Flux{int64(hi - lo), o.upSum[hi] - o.upSum[lo], o.downSum[hi] - o.downSum[lo]}
	}
	var f Flux
	for _, r := range o.CDR[lo:hi] {
		if r.Duration > minDuration {
			f.Rows++
			f.Up += r.Upflux
			f.Down += r.Downfl
		}
	}
	return f
}

// CountRows returns the CDR and NMS rows inside the window — what a box-less
// exploration reports as "rows".
func (o *Oracle) CountRows(from, to time.Time) (cdr, nms int64) {
	lo, hi := o.cdrRange(from, to)
	nlo, nhi := o.nmsRange(from, to)
	return int64(hi - lo), int64(nhi - nlo)
}

// CellSums is one group of the T3 aggregate.
type CellSums struct{ Drops, Attempts int64 }

// NMSByCell answers SELECT cell_id, SUM(drop_calls), SUM(call_attempts)
// FROM NMS ... GROUP BY cell_id over the window.
func (o *Oracle) NMSByCell(from, to time.Time) map[int64]CellSums {
	lo, hi := o.nmsRange(from, to)
	out := make(map[int64]CellSums)
	for _, r := range o.NMS[lo:hi] {
		s := out[r.Cell]
		s.Drops += r.Drops
		s.Attempts += r.Attempts
		out[r.Cell] = s
	}
	return out
}

// Movers answers the T4 self-join: the distinct callers seen at two
// different cells inside the window, sorted.
func (o *Oracle) Movers(from, to time.Time) []string {
	lo, hi := o.cdrRange(from, to)
	first := make(map[string]int64)
	moved := make(map[string]bool)
	for _, r := range o.CDR[lo:hi] {
		if c, ok := first[r.Caller]; !ok {
			first[r.Caller] = r.Cell
		} else if c != r.Cell {
			moved[r.Caller] = true
		}
	}
	out := make([]string, 0, len(moved))
	for c := range moved {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// LoadCells reads the cell locations (x_km, y_km: columns 3 and 4) of a
// trace's CELL inventory.
func LoadCells(root string) ([]Point, error) {
	f, err := os.Open(filepath.Join(root, "CELL"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Point
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs, err := fields(sc.Bytes(), 5)
		if err != nil {
			return nil, err
		}
		x, err := strconv.ParseFloat(string(fs[3]), 64)
		if err != nil {
			return nil, err
		}
		y, err := strconv.ParseFloat(string(fs[4]), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{x, y})
	}
	return out, sc.Err()
}

// Span returns the trace's time span: first epoch start to last epoch end.
func (o *Oracle) Span() (from, to time.Time) {
	if len(o.Epochs) == 0 {
		return
	}
	return o.Epochs[0], o.Epochs[len(o.Epochs)-1].Add(EpochLen)
}
