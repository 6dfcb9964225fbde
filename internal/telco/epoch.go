package telco

import "time"

// EpochDuration is the ingestion cycle: telco snapshots arrive in
// horizontally segmented files every 30 minutes (paper §II-B).
const EpochDuration = 30 * time.Minute

// EpochsPerDay is the number of snapshot leaves under each day node.
const EpochsPerDay = int(24 * time.Hour / EpochDuration) // 48

// Epoch identifies one 30-minute ingestion cycle as the number of cycles
// since the Unix epoch.
type Epoch int64

// EpochOf returns the epoch containing t. The division floors, so a time
// before 1970 lands in the epoch that starts at or before it.
func EpochOf(t time.Time) Epoch {
	const span = int64(EpochDuration / time.Second)
	sec := t.Unix()
	e := sec / span
	if sec%span < 0 {
		e--
	}
	return Epoch(e)
}

// Start returns the inclusive start time of the epoch.
func (e Epoch) Start() time.Time {
	return time.Unix(int64(e)*int64(EpochDuration/time.Second), 0).UTC()
}

// End returns the exclusive end time of the epoch.
func (e Epoch) End() time.Time { return e.Start().Add(EpochDuration) }

// Contains reports whether t falls inside the epoch.
func (e Epoch) Contains(t time.Time) bool {
	return !t.Before(e.Start()) && t.Before(e.End())
}

// String renders the epoch by its start time in the wire layout.
func (e Epoch) String() string { return e.Start().Format(TimeLayout) }

// TimeRange is a half-open interval [From, To).
type TimeRange struct {
	From time.Time
	To   time.Time
}

// NewTimeRange builds a range, swapping the endpoints if needed.
func NewTimeRange(a, b time.Time) TimeRange {
	if b.Before(a) {
		a, b = b, a
	}
	return TimeRange{From: a, To: b}
}

// Contains reports whether t is inside the range.
func (r TimeRange) Contains(t time.Time) bool {
	return !t.Before(r.From) && t.Before(r.To)
}

// Covers reports whether r fully contains s.
func (r TimeRange) Covers(s TimeRange) bool {
	return !s.From.Before(r.From) && !r.To.Before(s.To)
}

// Overlaps reports whether the two ranges intersect.
func (r TimeRange) Overlaps(s TimeRange) bool {
	return r.From.Before(s.To) && s.From.Before(r.To)
}

// Duration returns the length of the range.
func (r TimeRange) Duration() time.Duration { return r.To.Sub(r.From) }

// Epochs returns every epoch that overlaps the range, in order.
func (r TimeRange) Epochs() []Epoch {
	if !r.From.Before(r.To) {
		return nil
	}
	var out []Epoch
	for e := EpochOf(r.From); e.Start().Before(r.To); e++ {
		out = append(out, e)
	}
	return out
}
