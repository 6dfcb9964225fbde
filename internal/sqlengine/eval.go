package sqlengine

import (
	"cmp"
	"fmt"
	"math"
	"strings"

	"spate/internal/scanspec"
	"spate/internal/telco"
)

// evaluator computes expression values over combined rows.
type evaluator struct {
	scope *scope
	// subs holds pre-computed IN-subquery value sets.
	subs map[*InExpr]map[string]bool
	// aggValues holds the current group's aggregate results during
	// projection of aggregated queries.
	aggValues map[*AggFunc]telco.Value
	// rowAggs keeps each result row's aggregate map for ORDER BY.
	rowAggs []map[*AggFunc]telco.Value
}

// colRef is a column reference bound to its position in the combined row,
// or to the error resolving it gave: evaluating it returns that error, as
// resolving the name on every row did.
type colRef struct {
	ref *ColumnRef
	pos int
	err error
}

func (c *colRef) exprString() string { return c.ref.exprString() }

// timeLit is a string literal that names one instant exactly: fourteen
// digits of telco.TimeLayout that re-format to themselves, with a year from
// 1000 to 9999. It evaluates to its string like any literal; compared with
// a time value it compares as Unix seconds (timeLitCompare).
type timeLit struct {
	*Literal
	sec int64
}

// newTimeLit converts l when it is a canonical time literal.
func newTimeLit(l *Literal) (*timeLit, bool) {
	if !l.IsStr || len(l.Str) != len(telco.TimeLayout) || l.Str[0] < '1' || l.Str[0] > '9' {
		return nil, false
	}
	v, err := telco.ParseValue(telco.KindTime, l.Str)
	if err != nil || v.Format() != l.Str {
		return nil, false
	}
	return &timeLit{Literal: l, sec: v.Time().Unix()}, true
}

// compare orders the time v against the literal as Unix seconds; ok is
// false where that could disagree with the wire-form compare.
func (t *timeLit) compare(v telco.Value) (c int, ok bool) {
	if v.Kind() != telco.KindTime {
		return 0, false
	}
	sec := v.Time().Unix()
	if sec >= scanspec.MaxWireSec {
		return 0, false
	}
	return cmp.Compare(sec, t.sec), true
}

// timeLitCompare compares l with r, the values of le and re, when one is a
// time and the other expression a timeLit; ok is false otherwise, and the
// caller compares the values as it always did.
func timeLitCompare(l, r telco.Value, le, re Expr) (c int, ok bool) {
	if t, isLit := re.(*timeLit); isLit {
		if c, ok := t.compare(l); ok {
			return c, true
		}
	}
	if t, isLit := le.(*timeLit); isLit {
		if c, ok := t.compare(r); ok {
			return -c, true
		}
	}
	return 0, false
}

// compareTo is compare(a, b) for b the value of expression be.
func compareTo(a, b telco.Value, be Expr) int {
	if c, ok := timeLitCompare(a, b, nil, be); ok {
		return c
	}
	return compare(a, b)
}

// bind returns x with every column reference resolved against ev's scope
// to its row position and every canonical time literal converted, so the
// row loops never resolve a name or parse a literal. Nodes are copied, never
// changed: a parsed statement may run again or concurrently. A copied IN
// keeps its subquery's value set.
func (ev *evaluator) bind(x Expr) Expr {
	switch v := x.(type) {
	case nil:
		return nil
	case *ColumnRef:
		i, err := ev.scope.resolve(v)
		return &colRef{ref: v, pos: i, err: err}
	case *Literal:
		if t, ok := newTimeLit(v); ok {
			return t
		}
		return v
	case *Binary:
		return &Binary{Op: v.Op, Left: ev.bind(v.Left), Right: ev.bind(v.Right)}
	case *Unary:
		return &Unary{Op: v.Op, X: ev.bind(v.X)}
	case *IsNullExpr:
		return &IsNullExpr{X: ev.bind(v.X), Negate: v.Negate}
	case *InExpr:
		in := &InExpr{X: ev.bind(v.X), Sub: v.Sub, Negate: v.Negate}
		for _, le := range v.List {
			in.List = append(in.List, ev.bind(le))
		}
		if set, ok := ev.subs[v]; ok {
			ev.subs[in] = set
		}
		return in
	case *BetweenExpr:
		return &BetweenExpr{X: ev.bind(v.X), Lo: ev.bind(v.Lo), Hi: ev.bind(v.Hi), Negate: v.Negate}
	case *LikeExpr:
		return &LikeExpr{X: ev.bind(v.X), Pattern: v.Pattern, Negate: v.Negate}
	case *AggFunc:
		return &AggFunc{Name: v.Name, Star: v.Star, Distinct: v.Distinct, Arg: ev.bind(v.Arg)}
	case *FuncExpr:
		f := &FuncExpr{Name: v.Name, Args: make([]Expr, len(v.Args))}
		for i, a := range v.Args {
			f.Args[i] = ev.bind(a)
		}
		return f
	}
	return x
}

// eval computes x, an expression bound by bind, over row.
func (ev *evaluator) eval(x Expr, row []telco.Value) (telco.Value, error) {
	switch v := x.(type) {
	case *colRef:
		if v.err != nil {
			return telco.Null, v.err
		}
		if v.pos >= len(row) {
			return telco.Null, nil
		}
		return row[v.pos], nil
	case *timeLit:
		return telco.String(v.Str), nil
	case *Literal:
		switch {
		case v.IsNull:
			return telco.Null, nil
		case v.IsStr:
			return telco.String(v.Str), nil
		case v.IsInt:
			return telco.Int(v.Int), nil
		case v.IsBool:
			return boolVal(v.Bool), nil
		default:
			return telco.Float(v.Float), nil
		}
	case *AggFunc:
		if ev.aggValues == nil {
			return telco.Null, fmt.Errorf("sql: aggregate %s outside aggregation", v.Name)
		}
		val, ok := ev.aggValues[v]
		if !ok {
			return telco.Null, fmt.Errorf("sql: unresolved aggregate %s", v.Name)
		}
		return val, nil
	case *Unary:
		inner, err := ev.eval(v.X, row)
		if err != nil {
			return telco.Null, err
		}
		switch v.Op {
		case "-":
			switch inner.Kind() {
			case telco.KindInt:
				return telco.Int(-inner.Int64()), nil
			case telco.KindFloat:
				return telco.Float(-inner.Float64()), nil
			case telco.KindNull:
				return telco.Null, nil
			}
			return telco.Null, fmt.Errorf("sql: cannot negate %v", inner.Kind())
		case "NOT":
			if inner.IsNull() {
				return telco.Null, nil
			}
			return boolVal(!truthy(inner)), nil
		}
		return telco.Null, fmt.Errorf("sql: unknown unary %q", v.Op)
	case *Binary:
		return ev.evalBinary(v, row)
	case *IsNullExpr:
		inner, err := ev.eval(v.X, row)
		if err != nil {
			return telco.Null, err
		}
		return boolVal(inner.IsNull() != v.Negate), nil
	case *InExpr:
		return ev.evalIn(v, row)
	case *BetweenExpr:
		iv, err := ev.eval(v.X, row)
		if err != nil {
			return telco.Null, err
		}
		lo, err := ev.eval(v.Lo, row)
		if err != nil {
			return telco.Null, err
		}
		hi, err := ev.eval(v.Hi, row)
		if err != nil {
			return telco.Null, err
		}
		if iv.IsNull() || lo.IsNull() || hi.IsNull() {
			return telco.Null, nil
		}
		in := compareTo(iv, lo, v.Lo) >= 0 && compareTo(iv, hi, v.Hi) <= 0
		return boolVal(in != v.Negate), nil
	case *LikeExpr:
		iv, err := ev.eval(v.X, row)
		if err != nil {
			return telco.Null, err
		}
		if iv.IsNull() {
			return telco.Null, nil
		}
		m := likeMatch(iv.Format(), v.Pattern)
		return boolVal(m != v.Negate), nil
	case *FuncExpr:
		return ev.evalFunc(v, row)
	}
	return telco.Null, fmt.Errorf("sql: cannot evaluate %T", x)
}

// evalFunc computes a scalar function. Supported: time-part extraction
// (YEAR/MONTH/DAY/HOUR/MINUTE over time values), string functions (LENGTH,
// UPPER, LOWER, SUBSTR), numeric ABS and ROUND, and COALESCE.
func (ev *evaluator) evalFunc(f *FuncExpr, row []telco.Value) (telco.Value, error) {
	wantArgs := func(n int) error {
		if len(f.Args) != n {
			return fmt.Errorf("sql: %s wants %d argument(s), got %d", f.Name, n, len(f.Args))
		}
		return nil
	}
	// COALESCE short-circuits per argument.
	if f.Name == "COALESCE" {
		for _, a := range f.Args {
			v, err := ev.eval(a, row)
			if err != nil {
				return telco.Null, err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return telco.Null, nil
	}
	args := make([]telco.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := ev.eval(a, row)
		if err != nil {
			return telco.Null, err
		}
		args[i] = v
	}
	switch f.Name {
	case "YEAR", "MONTH", "DAY", "HOUR", "MINUTE":
		if err := wantArgs(1); err != nil {
			return telco.Null, err
		}
		if args[0].IsNull() {
			return telco.Null, nil
		}
		if args[0].Kind() != telco.KindTime {
			return telco.Null, fmt.Errorf("sql: %s wants a time value", f.Name)
		}
		t := args[0].Time()
		switch f.Name {
		case "YEAR":
			return telco.Int(int64(t.Year())), nil
		case "MONTH":
			return telco.Int(int64(t.Month())), nil
		case "DAY":
			return telco.Int(int64(t.Day())), nil
		case "HOUR":
			return telco.Int(int64(t.Hour())), nil
		default:
			return telco.Int(int64(t.Minute())), nil
		}
	case "LENGTH":
		if err := wantArgs(1); err != nil {
			return telco.Null, err
		}
		if args[0].IsNull() {
			return telco.Null, nil
		}
		return telco.Int(int64(len(args[0].Format()))), nil
	case "UPPER", "LOWER":
		if err := wantArgs(1); err != nil {
			return telco.Null, err
		}
		if args[0].IsNull() {
			return telco.Null, nil
		}
		s := args[0].Format()
		if f.Name == "UPPER" {
			return telco.String(strings.ToUpper(s)), nil
		}
		return telco.String(strings.ToLower(s)), nil
	case "SUBSTR":
		if err := wantArgs(3); err != nil {
			return telco.Null, err
		}
		if args[0].IsNull() {
			return telco.Null, nil
		}
		s := args[0].Format()
		start := int(args[1].Int64()) - 1 // SQL is 1-based
		n := int(args[2].Int64())
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := start + n
		if n < 0 || end > len(s) {
			end = len(s)
		}
		return telco.String(s[start:end]), nil
	case "ABS":
		if err := wantArgs(1); err != nil {
			return telco.Null, err
		}
		switch args[0].Kind() {
		case telco.KindNull:
			return telco.Null, nil
		case telco.KindInt:
			v := args[0].Int64()
			if v < 0 {
				v = -v
			}
			return telco.Int(v), nil
		case telco.KindFloat:
			return telco.Float(math.Abs(args[0].Float64())), nil
		}
		return telco.Null, fmt.Errorf("sql: ABS wants a number")
	case "ROUND":
		if err := wantArgs(1); err != nil {
			return telco.Null, err
		}
		switch args[0].Kind() {
		case telco.KindNull:
			return telco.Null, nil
		case telco.KindInt:
			return args[0], nil
		case telco.KindFloat:
			return telco.Float(math.Round(args[0].Float64())), nil
		}
		return telco.Null, fmt.Errorf("sql: ROUND wants a number")
	}
	return telco.Null, fmt.Errorf("sql: unknown function %s", f.Name)
}

func (ev *evaluator) evalBinary(b *Binary, row []telco.Value) (telco.Value, error) {
	// Short-circuit logical operators.
	switch b.Op {
	case "AND":
		l, err := ev.eval(b.Left, row)
		if err != nil {
			return telco.Null, err
		}
		if !l.IsNull() && !truthy(l) {
			return boolVal(false), nil
		}
		r, err := ev.eval(b.Right, row)
		if err != nil {
			return telco.Null, err
		}
		if !r.IsNull() && !truthy(r) {
			return boolVal(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return telco.Null, nil
		}
		return boolVal(true), nil
	case "OR":
		l, err := ev.eval(b.Left, row)
		if err != nil {
			return telco.Null, err
		}
		if !l.IsNull() && truthy(l) {
			return boolVal(true), nil
		}
		r, err := ev.eval(b.Right, row)
		if err != nil {
			return telco.Null, err
		}
		if !r.IsNull() && truthy(r) {
			return boolVal(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return telco.Null, nil
		}
		return boolVal(false), nil
	}
	l, err := ev.eval(b.Left, row)
	if err != nil {
		return telco.Null, err
	}
	r, err := ev.eval(b.Right, row)
	if err != nil {
		return telco.Null, err
	}
	switch b.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return telco.Null, nil
		}
		c, ok := timeLitCompare(l, r, b.Left, b.Right)
		if !ok && (b.Op == "=" || b.Op == "!=") {
			// Time = short-string-literal means containment in the
			// literal's covered interval (the paper's T1 semantics:
			// ts='201601221530' selects that minute).
			if eq, ok := timePrefixEqual(l, r); ok {
				return boolVal(eq == (b.Op == "=")), nil
			}
		}
		if !ok {
			c = compare(l, r)
		}
		switch b.Op {
		case "=":
			return boolVal(c == 0), nil
		case "!=":
			return boolVal(c != 0), nil
		case "<":
			return boolVal(c < 0), nil
		case "<=":
			return boolVal(c <= 0), nil
		case ">":
			return boolVal(c > 0), nil
		default:
			return boolVal(c >= 0), nil
		}
	case "+", "-", "*", "/", "%":
		if l.IsNull() || r.IsNull() {
			return telco.Null, nil
		}
		return arith(b.Op, l, r)
	}
	return telco.Null, fmt.Errorf("sql: unknown operator %q", b.Op)
}

func (ev *evaluator) evalIn(v *InExpr, row []telco.Value) (telco.Value, error) {
	iv, err := ev.eval(v.X, row)
	if err != nil {
		return telco.Null, err
	}
	if iv.IsNull() {
		return telco.Null, nil
	}
	if v.Sub != nil {
		set := ev.subs[v]
		if set == nil {
			return telco.Null, fmt.Errorf("sql: unresolved subquery")
		}
		return boolVal(set[iv.Format()] != v.Negate), nil
	}
	for _, le := range v.List {
		lv, err := ev.eval(le, row)
		if err != nil {
			return telco.Null, err
		}
		if !lv.IsNull() && compareTo(iv, lv, le) == 0 {
			return boolVal(!v.Negate), nil
		}
	}
	return boolVal(v.Negate), nil
}

// evalBool evaluates a predicate; NULL counts as false.
func (ev *evaluator) evalBool(x Expr, row []telco.Value) (bool, error) {
	v, err := ev.eval(x, row)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && truthy(v), nil
}

// boolVal encodes booleans as integers (1/0), Hive-style.
func boolVal(b bool) telco.Value {
	if b {
		return telco.Int(1)
	}
	return telco.Int(0)
}

func truthy(v telco.Value) bool {
	switch v.Kind() {
	case telco.KindInt:
		return v.Int64() != 0
	case telco.KindFloat:
		return v.Float64() != 0
	case telco.KindString:
		return v.Str() != ""
	case telco.KindTime:
		return true
	default:
		return false
	}
}

// compare orders two values with cross-kind coercion: numerics compare
// numerically, and times compare with strings lexicographically on the
// wire form (Hive string-timestamp semantics).
func compare(a, b telco.Value) int {
	ak, bk := a.Kind(), b.Kind()
	if (ak == telco.KindTime && bk == telco.KindString) ||
		(ak == telco.KindString && bk == telco.KindTime) {
		return strings.Compare(a.Format(), b.Format())
	}
	return a.Compare(b)
}

// timePrefixEqual implements equality between a time value and a shorter
// timestamp literal as interval containment. The bool result reports
// whether this rule applied.
func timePrefixEqual(a, b telco.Value) (eq, ok bool) {
	var tv telco.Value
	var lit string
	switch {
	case a.Kind() == telco.KindTime && b.Kind() == telco.KindString:
		tv, lit = a, b.Str()
	case b.Kind() == telco.KindTime && a.Kind() == telco.KindString:
		tv, lit = b, a.Str()
	default:
		return false, false
	}
	if len(lit) >= len(telco.TimeLayout) {
		return tv.Format() == lit, true
	}
	lo, hi, valid := parseTimeLit(lit)
	if !valid {
		return false, true
	}
	t := tv.Time()
	return !t.Before(lo) && t.Before(hi), true
}

func arith(op string, l, r telco.Value) (telco.Value, error) {
	bothInt := l.Kind() == telco.KindInt && r.Kind() == telco.KindInt
	if bothInt {
		a, b := l.Int64(), r.Int64()
		switch op {
		case "+":
			return telco.Int(a + b), nil
		case "-":
			return telco.Int(a - b), nil
		case "*":
			return telco.Int(a * b), nil
		case "/":
			if b == 0 {
				return telco.Null, nil
			}
			return telco.Int(a / b), nil
		case "%":
			if b == 0 {
				return telco.Null, nil
			}
			return telco.Int(a % b), nil
		}
	}
	a, b := l.Float64(), r.Float64()
	if (l.Kind() != telco.KindInt && l.Kind() != telco.KindFloat) ||
		(r.Kind() != telco.KindInt && r.Kind() != telco.KindFloat) {
		return telco.Null, fmt.Errorf("sql: arithmetic on non-numeric values")
	}
	switch op {
	case "+":
		return telco.Float(a + b), nil
	case "-":
		return telco.Float(a - b), nil
	case "*":
		return telco.Float(a * b), nil
	case "/":
		if b == 0 {
			return telco.Null, nil
		}
		return telco.Float(a / b), nil
	case "%":
		return telco.Null, fmt.Errorf("sql: %% on floats")
	}
	return telco.Null, fmt.Errorf("sql: unknown arithmetic %q", op)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any byte).
func likeMatch(s, pattern string) bool {
	// Dynamic programming over pattern/string positions, iterative
	// two-pointer with backtracking on the last %.
	var si, pi int
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			starSi = si
			pi++
		case star >= 0:
			pi = star + 1
			starSi++
			si = starSi
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// aggState accumulates one aggregate function.
type aggState interface {
	add(v telco.Value, star bool)
	value() telco.Value
}

func newAggState(a *AggFunc) aggState {
	switch a.Name {
	case "COUNT":
		if a.Distinct {
			return &countState{distinct: map[string]bool{}}
		}
		return &countState{}
	case "SUM":
		return &sumState{}
	case "AVG":
		return &avgState{}
	case "MIN":
		return &minMaxState{min: true}
	case "MAX":
		return &minMaxState{}
	default:
		panic("sql: unknown aggregate " + a.Name)
	}
}

type countState struct {
	n        int64
	distinct map[string]bool // non-nil for COUNT(DISTINCT x)
}

func (s *countState) add(v telco.Value, star bool) {
	if s.distinct != nil {
		if !v.IsNull() {
			s.distinct[v.Format()] = true
		}
		return
	}
	if star || !v.IsNull() {
		s.n++
	}
}

func (s *countState) value() telco.Value {
	if s.distinct != nil {
		return telco.Int(int64(len(s.distinct)))
	}
	return telco.Int(s.n)
}

type sumState struct {
	sum     float64
	intSum  int64
	allInts bool
	seen    bool
}

func (s *sumState) add(v telco.Value, _ bool) {
	if v.IsNull() {
		return
	}
	if !s.seen {
		s.allInts = true
	}
	s.seen = true
	if v.Kind() != telco.KindInt {
		s.allInts = false
	}
	s.intSum += v.Int64()
	s.sum += v.Float64()
}

func (s *sumState) value() telco.Value {
	if !s.seen {
		return telco.Null
	}
	if s.allInts {
		return telco.Int(s.intSum)
	}
	return telco.Float(s.sum)
}

type avgState struct {
	sum float64
	n   int64
}

func (s *avgState) add(v telco.Value, _ bool) {
	if v.IsNull() {
		return
	}
	s.sum += v.Float64()
	s.n++
}

func (s *avgState) value() telco.Value {
	if s.n == 0 {
		return telco.Null
	}
	return telco.Float(s.sum / float64(s.n))
}

type minMaxState struct {
	min  bool
	best telco.Value
	seen bool
}

func (s *minMaxState) add(v telco.Value, _ bool) {
	if v.IsNull() {
		return
	}
	if !s.seen {
		s.best = v
		s.seen = true
		return
	}
	c := compare(v, s.best)
	if (s.min && c < 0) || (!s.min && c > 0) {
		s.best = v
	}
}

func (s *minMaxState) value() telco.Value {
	if !s.seen {
		return telco.Null
	}
	return s.best
}
