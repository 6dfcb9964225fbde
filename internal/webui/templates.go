package webui

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"spate/internal/core"
	"spate/internal/highlights"
	"spate/internal/telco"
)

// Template queries (paper §VI-B): the SPATE-UI "query bar that enables the
// execution of template queries for drop calls and downflux/upflux,
// heatmap statistics (e.g., showing the RSSi signal intensity around
// antennas)". Each template is a canned Q(a, b, w) whose per-cell series
// selects the relevant counter.

// templateSpec maps a template name to its attribute and reduction.
type templateSpec struct {
	attr highlights.AttrRef
	// stat selects which statistic of the attribute renders per cell:
	// "sum" (counters) or "mean" (signal levels).
	stat string
	desc string
}

var templates = map[string]templateSpec{
	"dropcalls": {highlights.AttrRef{Table: "NMS", Attr: "drop_calls"}, "sum",
		"dropped calls per cell"},
	"downflux": {highlights.AttrRef{Table: "CDR", Attr: telco.AttrDownflux}, "sum",
		"download bytes per cell"},
	"upflux": {highlights.AttrRef{Table: "CDR", Attr: telco.AttrUpflux}, "sum",
		"upload bytes per cell"},
	"rssi": {highlights.AttrRef{Table: "NMS", Attr: "rssi_dbm"}, "mean",
		"mean RSSI signal intensity per cell"},
}

// templateNames lists the available template queries.
func templateNames() []string {
	return []string{"dropcalls", "downflux", "upflux", "rssi"}
}

func (s *Server) handleTemplate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("name")
	spec, ok := templates[name]
	if !ok {
		httpErr(w, http.StatusBadRequest,
			fmt.Errorf("unknown template %q (have %v)", name, templateNames()))
		return
	}
	win, err := s.parseWindow(q)
	if err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	x, err := s.b.explore(r.Context(), core.Query{Window: win, Attrs: []highlights.AttrRef{spec.attr}})
	if err != nil {
		httpErr(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, func(b []byte) ([]byte, error) { return appendTemplate(b, name, spec, x.Cells), nil })
}

// appendTemplate writes a template answer as encoding/json writes
// {"template", "desc", "stat", "cells": []ExploreCellJSON}, newline
// included, each cell's value the template's statistic of its attribute;
// a non-finite value (a NaN that reached the window) is written as null.
func appendTemplate(b []byte, name string, spec templateSpec, cells []core.CellSeries) []byte {
	b = append(b, `{"template":`...)
	b = appendString(b, name)
	b = append(b, `,"desc":`...)
	b = appendString(b, spec.desc)
	b = append(b, `,"stat":`...)
	b = appendString(b, spec.stat)
	b = append(b, `,"cells":`...)
	n := 0
	p := pickRef(spec.attr, cells)
	for _, cs := range cells {
		v, nonNull, ok := p.read(cs.Attr)
		if !ok {
			continue
		}
		if spec.stat == "mean" {
			v = mean(v, nonNull)
		}
		if n == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		n++
		b = appendCellHead(b, cs.CellID, cs.Loc)
		b = append(b, `,"rows":`...)
		b = strconv.AppendInt(b, cs.Rows, 10)
		b = append(b, `,"value":`...)
		b = appendFloat(b, v)
		b = append(b, '}')
	}
	if n == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// mean is highlights.Stats.Mean of a sum over nonNull values.
func mean(sum float64, nonNull int64) float64 {
	if nonNull == 0 {
		return 0
	}
	return sum / float64(nonNull)
}

// Playback (paper §VI-A): "observe the query results as snapshots or as a
// video (i.e., playback highlights in fast-forward)". The endpoint slices
// the window into fixed steps and returns one frame of per-cell activity
// per step; repeated playback of a narrowed window is served from the
// engine's result cache (each shard's, over a coordinator).

// playbackFrame is one step of a playback sequence.
type playbackFrame struct {
	From  string            `json:"from"`
	To    string            `json:"to"`
	Rows  int64             `json:"rows"`
	Cells []ExploreCellJSON `json:"cells"`
}

// maxPlaybackFrames bounds a playback response.
const maxPlaybackFrames = 96

func (s *Server) handlePlayback(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	win, err := s.parseWindow(q)
	if err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	step := telco.EpochDuration
	if v := q.Get("step"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			httpErr(w, http.StatusBadRequest, fmt.Errorf("bad step %q", v))
			return
		}
		step = d
	}
	if int(win.Duration()/step) > maxPlaybackFrames {
		httpErr(w, http.StatusBadRequest,
			fmt.Errorf("window/step yields more than %d frames; widen the step", maxPlaybackFrames))
		return
	}
	var frames []playbackFrame
	for from := win.From; from.Before(win.To); from = from.Add(step) {
		to := from.Add(step)
		if to.After(win.To) {
			to = win.To
		}
		// A client that went away ends the playback at this frame instead
		// of running out the rest (a cached frame would not notice).
		x, err := s.b.explore(r.Context(), core.Query{Window: telco.NewTimeRange(from, to)})
		if err == nil {
			err = r.Context().Err()
		}
		if err != nil {
			httpErr(w, http.StatusInternalServerError, err)
			return
		}
		fr := playbackFrame{
			From: from.Format(telco.TimeLayout),
			To:   to.Format(telco.TimeLayout),
			Rows: x.Summary.Rows,
		}
		for _, cs := range x.Cells {
			fr.Cells = append(fr.Cells, ExploreCellJSON{
				ID: cs.CellID, X: cs.Loc.X, Y: cs.Loc.Y, Rows: cs.Rows,
			})
		}
		frames = append(frames, fr)
	}
	writeJSON(w, map[string]any{"step": step.String(), "frames": frames})
}
