// Compiled expression programs: the compile-once/run-many half of the
// evaluator. Compile resolves every column reference to a fixed
// (relation, column) slot against a statement's relation layout, folds
// constant subtrees, and lowers the tree into a flat program: a run of
// value-typed instructions in a caller-owned Code buffer, which a
// switch-dispatched machine walks by index. The per-row cost of a
// WHERE/ON/HAVING clause is slot loads and value operations, never
// string-based column resolution or interface dispatch over AST nodes,
// and compiling into a warmed buffer allocates nothing.
//
// Instructions are emitted in post order, so a node's operands sit at
// lower indexes than the node and a program's root is its last
// instruction. An instruction holds its operator, the indexes of its
// operands (or a range of Code.refs for the IN items, CASE arms and
// function arguments), its constant, a column's slot and declared
// collation, the collation an enclosing comparison uses, and the AST node
// the operator needs at run time (LIKE's left operand, the fault helpers,
// a CAST's type, a function's name).
//
// Both paths bind columns through the same Layout and the same rule
// (bindColumn), and apply every operator through the same helpers (unary,
// binary, between, Cast, Scalar): the tree-walk interpreter resolves a
// reference each time it evaluates it, a program once, when it is
// compiled. Constant folding runs a pure subtree on the machine, truncates
// the buffer back to the subtree's start and emits one constant.
//
// Fault fidelity is the design constraint: compiled comparisons route
// through the very same comparisonFaults helper the tree-walk interpreter
// uses (reading metadata through the layout), and fault toggles that the
// interpreter consults at evaluation time (faults.Set.Has,
// CaseSensitiveLike) stay runtime reads in the machine. The one
// deliberate deviation: constant folding bakes in results computed under
// the fault set active at compile time, so mutating an evaluator's fault
// set after compiling programs is unsupported (no caller does; engines fix
// their fault set at Open).
//
// A program is not safe for concurrent evaluation: function calls reuse
// argument scratch in the buffer. The engine serializes statements, which
// is the contract the executor already relies on.
package eval

import (
	"slices"
	"strings"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/xerr"
)

// Slot addresses one column at run time: the relation's position in the
// statement's layout and the column's position within that relation.
type Slot struct {
	Rel, Col int
}

// Layout is the compile-time shape of a statement's FROM sources. Resolve
// binds a (possibly unqualified) column reference once; per-row evaluation
// then reads through the returned slot.
type Layout interface {
	// NumRels reports how many relations the layout spans (the Frame must
	// carry one row per relation).
	NumRels() int
	// Resolve binds a column reference to its slot and metadata, or
	// reports it Missing or Ambiguous (an unqualified reference matching
	// more than one column). It builds no error: bindColumn does, only
	// when the reference cannot bind.
	Resolve(table, column string) (Slot, Meta, Resolution)
}

// Resolution is the outcome of resolving a column reference.
type Resolution uint8

// Resolutions.
const (
	Missing   Resolution = iota // no column matches
	Found                       // exactly one column matches
	Ambiguous                   // an unqualified name matches several
)

// errAmbiguousColumn is the distinct diagnostic for an unqualified column
// reference matching more than one relation column.
func errAmbiguousColumn(column string) error {
	return xerr.New(xerr.CodeNoObject, "ambiguous column name: %s", column)
}

// IsAmbiguousColumn recognizes ambiguous-column errors.
func IsAmbiguousColumn(err error) bool {
	return err != nil && strings.HasPrefix(err.Error(), "ambiguous column name: ")
}

// errNoSuchColumn is the missing-column diagnostic.
func errNoSuchColumn(table, column string) error {
	name := column
	if table != "" {
		name = table + "." + column
	}
	return xerr.New(xerr.CodeNoObject, "no such column: %s", name)
}

// Frame is the per-row evaluation state of a compiled Program: the current
// row of each relation, parallel to the compile-time layout. A nil row is
// the NULL-extended side of an outer join (every column reads as NULL).
type Frame struct {
	Rows [][]sqlval.Value
}

// value reads a slot of the frame's current rows. A nil row (the NULL side
// of an outer join) or a row shorter than the slot reads as NULL.
func (f *Frame) value(s Slot) sqlval.Value {
	row := f.Rows[s.Rel]
	if row == nil || s.Col >= len(row) {
		return sqlval.Null()
	}
	return row[s.Col]
}

// bindColumn resolves a column reference against lay — the one binding
// rule Eval and Compile share. A nil layout has no columns. When the
// reference does not resolve, SQLite's double-quote misfeature applies:
// an unresolvable MaybeString token is demoted to the string constant
// n.Column (demoted=true). An ambiguous reference outranks the demotion,
// matching SQLite: a double-quoted token naming two columns is an
// ambiguous identifier, not a string.
func (ev *Evaluator) bindColumn(n *sqlast.ColumnRef, lay Layout) (slot Slot, m Meta, demoted bool, err error) {
	res := Missing
	if lay != nil {
		slot, m, res = lay.Resolve(n.Table, n.Column)
	}
	switch {
	case res == Found:
		return slot, m, false, nil
	case res == Ambiguous:
		return Slot{}, Meta{}, false, errAmbiguousColumn(n.Column)
	case n.MaybeString && ev.D == dialect.SQLite:
		return Slot{}, Meta{}, true, nil
	}
	return Slot{}, Meta{}, false, errNoSuchColumn(n.Table, n.Column)
}

// columnMeta is the metadata half of bindColumn, for the fault and
// collation helpers: ok is false when the column does not resolve.
func columnMeta(lay Layout, table, column string) (Meta, bool) {
	if lay == nil {
		return Meta{}, false
	}
	_, m, res := lay.Resolve(table, column)
	return m, res == Found
}

// opcode is an instruction's operator.
type opcode uint8

// Instruction operators, with the fields each reads (see instr).
const (
	opConst          opcode = iota // val
	opColumn                       // a, b: the slot's relation and column; coll: the column's collation
	opUnary                        // uop over a
	opAnd                          // a AND b, both sides evaluated
	opOr                           // a OR b, both sides evaluated
	opBinary                       // node's operator over a and b, comparing under coll
	opBetween                      // a BETWEEN b AND c under coll, negated by not
	opIn                           // a IN refs[lo:lo+n] under coll, negated by not
	opCase                         // operand a (-1: none); refs[lo:lo+3n] (when, then, coll) per arm; else c (-1: none)
	opCast                         // a cast to node's type
	opFunc                         // node's function over refs[lo:lo+n], scratch args[c:c+n]
	opDoubleNegation               // a, or b (the inner NOT's operand) under mysql.double-negation
	opIsNotNullOpt                 // a, or TRUE under sqlite.is-not-null-opt
	opUnsupported                  // node is an expression the evaluator does not know
)

// instr is one compiled node. Which fields an operator reads is listed at
// its opcode; the rest stay zero.
type instr struct {
	op      opcode
	uop     sqlast.UnaryOp
	coll    sqlval.Collation
	not     bool
	a, b, c int32
	lo, n   int32
	val     sqlval.Value
	node    sqlast.Expr
}

// Code is a caller-owned buffer of compiled programs. Compile appends to
// it; Mark and Release bracket a scope's programs, so nested scopes
// release in LIFO order and a warmed buffer compiles without allocating.
// A Program indexes its buffer, so it stays valid until its buffer is
// released below it.
type Code struct {
	ins  []instr
	refs []int32        // IN items, CASE arms and function arguments
	args []sqlval.Value // function-call argument scratch
}

// CodeMark is a position in a Code, for Release.
type CodeMark struct {
	ins, refs, args int
}

// codeRetain caps the instructions an idle buffer keeps: one huge
// expression should not pin its memory for the buffer's lifetime.
const codeRetain = 1 << 14

// Mark returns the buffer's current position.
func (c *Code) Mark() CodeMark {
	return CodeMark{ins: len(c.ins), refs: len(c.refs), args: len(c.args)}
}

// Release drops every program compiled since m, clearing what it drops so
// the buffer pins no AST or value of a finished scope. A release to the
// empty mark also drops a buffer grown past the idle cap.
func (c *Code) Release(m CodeMark) {
	clear(c.ins[m.ins:])
	c.ins = c.ins[:m.ins]
	c.refs = c.refs[:m.refs]
	clear(c.args[m.args:])
	c.args = c.args[:m.args]
	if m == (CodeMark{}) && cap(c.ins) > codeRetain {
		*c = Code{}
	}
}

// Program is a compiled expression: the root of its instructions in a
// Code, with the evaluator and layout it runs under. Eval/EvalBool mirror
// Evaluator.Eval and Evaluator.EvalBool exactly — same values, same
// errors, same fault behaviour — at slot-load cost per column reference.
// A Program keeps its layout (comparisons read column metadata through it
// when a comparison fault is on), so it should not outlive the statement
// the layout describes.
type Program struct {
	ev   *Evaluator
	lay  Layout
	code *Code
	root int32
}

// Eval computes the program's value for the frame's current rows.
func (p *Program) Eval(f *Frame) (sqlval.Value, error) {
	if in := &p.code.ins[p.root]; in.op == opColumn {
		// Most projected columns are a bare column.
		return f.value(Slot{Rel: int(in.a), Col: int(in.b)}), nil
	}
	m := machine{ev: p.ev, lay: p.lay, code: *p.code, f: f}
	return m.run(p.root)
}

// EvalBool computes the program as a filter condition.
func (p *Program) EvalBool(f *Frame) (sqlval.TriBool, error) {
	v, err := p.Eval(f)
	if err != nil {
		return sqlval.TriUnknown, err
	}
	return p.ev.Truthy(v)
}

// Compile lowers e into a Program in code, bound to the layout. Column
// resolution errors (missing or ambiguous references) surface here, once,
// instead of per row — except the SQLite double-quote misfeature: an
// unresolvable MaybeString reference compiles to the string constant the
// interpreter would produce. A failed compile leaves the buffer as it
// found it.
func (ev *Evaluator) Compile(e sqlast.Expr, lay Layout, code *Code) (Program, error) {
	c := compiler{ev: ev, lay: lay, code: code}
	mk := code.Mark()
	root, _, err := c.compile(e)
	if err != nil {
		code.Release(mk)
		return Program{}, err
	}
	return Program{ev: ev, lay: lay, code: code, root: root}, nil
}

// compiler carries one Compile invocation's state.
type compiler struct {
	ev   *Evaluator
	lay  Layout
	code *Code
}

// noRows is the frame constant folding runs on: a pure subtree reads no
// column.
var noRows Frame

// emit appends an instruction and returns its index.
func (c *compiler) emit(in instr) int32 {
	c.code.ins = append(c.code.ins, in)
	return int32(len(c.code.ins) - 1)
}

// reserve extends refs by n operand slots and returns the first; the
// caller fills every slot it reads once the operands are compiled
// (operands append their own refs behind the reservation).
func (c *compiler) reserve(n int) int32 {
	lo := len(c.code.refs)
	c.code.refs = extend(c.code.refs, n)
	return int32(lo)
}

// extend lengthens s by n elements, reusing its capacity (release zeroes
// what it drops wherever a stale element could be read).
func extend[T any](s []T, n int) []T {
	s = slices.Grow(s, n)
	return s[:len(s)+n]
}

// compile lowers one node, then folds it if the subtree is pure: no column
// references and no dependence on evaluator state that can change between
// compile and run (LIKE reads the case_sensitive_like pragma at eval time,
// so LIKE nodes stay unfolded). Folding runs the subtree's instructions,
// truncates the buffer back to the subtree's start and emits the value as
// one constant. A pure subtree that evaluates to an error is deliberately
// left unfolded: the interpreter only raises such an error if the node is
// actually reached (e.g. a never-taken CASE arm), and folding eagerly
// would change that.
func (c *compiler) compile(e sqlast.Expr) (int32, bool, error) {
	mk := c.code.Mark()
	i, pure, err := c.compileNode(e)
	if err != nil {
		return 0, false, err
	}
	if pure && c.code.ins[i].op != opConst {
		m := machine{ev: c.ev, lay: c.lay, code: *c.code, f: &noRows}
		if v, ferr := m.run(i); ferr == nil {
			c.code.Release(mk)
			return c.emit(instr{op: opConst, val: v}), true, nil
		}
	}
	return i, pure, nil
}

func (c *compiler) compileNode(e sqlast.Expr) (int32, bool, error) {
	switch n := e.(type) {
	case *sqlast.Literal:
		return c.emit(instr{op: opConst, val: n.Val}), true, nil

	case *sqlast.ColumnRef:
		slot, m, demoted, err := c.ev.bindColumn(n, c.lay)
		if err != nil {
			return 0, false, err
		}
		if demoted {
			return c.emit(instr{op: opConst, val: sqlval.Text(n.Column)}), true, nil
		}
		return c.emit(instr{op: opColumn, a: int32(slot.Rel), b: int32(slot.Col), coll: m.Coll}), false, nil

	case *sqlast.Collate:
		// Collation influences enclosing comparisons structurally (the
		// comparison compiler inspects the AST); the node itself is
		// transparent, exactly as in the interpreter.
		return c.compile(n.X)

	case *sqlast.Unary:
		return c.compileUnary(n)

	case *sqlast.Binary:
		l, lp, err := c.compile(n.L)
		if err != nil {
			return 0, false, err
		}
		r, rp, err := c.compile(n.R)
		if err != nil {
			return 0, false, err
		}
		in := instr{op: opBinary, a: l, b: r, node: n}
		switch n.Op {
		case sqlast.OpAnd:
			in = instr{op: opAnd, a: l, b: r}
		case sqlast.OpOr:
			in = instr{op: opOr, a: l, b: r}
		case sqlast.OpLike, sqlast.OpNotLike:
			// Never pure: LIKE reads the case_sensitive_like pragma at
			// evaluation time, which can change between compile and run.
			lp = false
		}
		if collates(n.Op) {
			in.coll = c.collation(n.L, l, n.R, r)
		}
		return c.emit(in), lp && rp, nil

	case *sqlast.Between:
		x, xp, err := c.compile(n.X)
		if err != nil {
			return 0, false, err
		}
		lo, lop, err := c.compile(n.Lo)
		if err != nil {
			return 0, false, err
		}
		hi, hip, err := c.compile(n.Hi)
		if err != nil {
			return 0, false, err
		}
		return c.emit(instr{op: opBetween, a: x, b: lo, c: hi, not: n.Not,
			coll: c.collation(n.X, x, n.Lo, lo)}), xp && lop && hip, nil

	case *sqlast.InList:
		x, pure, err := c.compile(n.X)
		if err != nil {
			return 0, false, err
		}
		lo := c.reserve(len(n.List))
		for k, item := range n.List {
			it, ip, err := c.compile(item)
			if err != nil {
				return 0, false, err
			}
			c.code.refs[lo+int32(k)] = it
			pure = pure && ip
		}
		return c.emit(instr{op: opIn, a: x, lo: lo, n: int32(len(n.List)), not: n.Not,
			coll: c.collation(n.X, x, nil, -1)}), pure, nil

	case *sqlast.Cast:
		x, xp, err := c.compile(n.X)
		if err != nil {
			return 0, false, err
		}
		return c.emit(instr{op: opCast, a: x, node: n}), xp, nil

	case *sqlast.Case:
		return c.compileCase(n)

	case *sqlast.FuncCall:
		lo := c.reserve(len(n.Args))
		scratch := len(c.code.args)
		c.code.args = extend(c.code.args, len(n.Args))
		pure := true
		for k, a := range n.Args {
			at, ap, err := c.compile(a)
			if err != nil {
				return 0, false, err
			}
			c.code.refs[lo+int32(k)] = at
			pure = pure && ap
		}
		return c.emit(instr{op: opFunc, lo: lo, n: int32(len(n.Args)), c: int32(scratch), node: n}), pure, nil

	default:
		return c.emit(instr{op: opUnsupported, node: e}), false, nil
	}
}

func (c *compiler) compileUnary(n *sqlast.Unary) (int32, bool, error) {
	x, xp, err := c.compile(n.X)
	if err != nil {
		return 0, false, err
	}
	main := c.emit(instr{op: opUnary, uop: n.Op, a: x})

	// Structural fault shapes compile to runtime-gated alternates so the
	// rewrite fires exactly when the interpreter's Has check would.
	if n.Op == sqlast.OpNot && c.ev.D == dialect.MySQL {
		// Fault site (mysql.double-negation, Listing 13).
		if inner, ok := n.X.(*sqlast.Unary); ok && inner.Op == sqlast.OpNot {
			alt, _, err := c.compile(inner.X)
			if err != nil {
				return 0, false, err
			}
			return c.emit(instr{op: opDoubleNegation, a: main, b: alt}), false, nil
		}
	}
	if n.Op == sqlast.OpNot && c.ev.D == dialect.SQLite {
		// Fault site (sqlite.is-not-null-opt).
		if inner, ok := n.X.(*sqlast.Unary); ok && inner.Op == sqlast.OpIsNull {
			if _, isCol := inner.X.(*sqlast.ColumnRef); isCol {
				return c.emit(instr{op: opIsNotNullOpt, a: main}), false, nil
			}
		}
	}
	return main, xp, nil
}

func (c *compiler) compileCase(n *sqlast.Case) (int32, bool, error) {
	pure := true
	operand := int32(-1)
	if n.Operand != nil {
		var op bool
		var err error
		if operand, op, err = c.compile(n.Operand); err != nil {
			return 0, false, err
		}
		pure = op
	}
	lo := c.reserve(3 * len(n.Whens))
	for k, w := range n.Whens {
		wi, wp, err := c.compile(w.When)
		if err != nil {
			return 0, false, err
		}
		ti, tp, err := c.compile(w.Then)
		if err != nil {
			return 0, false, err
		}
		arm := c.code.refs[lo+3*int32(k):]
		arm[0], arm[1] = wi, ti
		if n.Operand != nil {
			arm[2] = int32(c.collation(n.Operand, operand, w.When, wi))
		}
		pure = pure && wp && tp
	}
	elseI := int32(-1)
	if n.Else != nil {
		var ep bool
		var err error
		if elseI, ep, err = c.compile(n.Else); err != nil {
			return 0, false, err
		}
		pure = pure && ep
	}
	return c.emit(instr{op: opCase, a: operand, lo: lo, n: int32(len(n.Whens)), c: elseI}), pure, nil
}

// collation is comparisonCollation over compiled operands (li, ri; -1 for
// none): an explicit COLLATE on either side, then the declared collation
// of a bare column on the left, then on the right, then the dialect
// default. A column operand carries its collation in its instruction, so
// nothing resolves twice.
func (c *compiler) collation(l sqlast.Expr, li int32, r sqlast.Expr, ri int32) sqlval.Collation {
	if coll, ok := explicitCollation(l, r); ok {
		return coll
	}
	if coll, ok := c.columnCollation(l, li); ok {
		return coll
	}
	if coll, ok := c.columnCollation(r, ri); ok {
		return coll
	}
	return c.ev.defaultCollation()
}

// columnCollation is the declared collation of e when e is a bare column
// reference compiled to instruction i.
func (c *compiler) columnCollation(e sqlast.Expr, i int32) (sqlval.Collation, bool) {
	if _, ok := e.(*sqlast.ColumnRef); !ok || c.code.ins[i].op != opColumn {
		return 0, false
	}
	return c.code.ins[i].coll, true
}

// machine runs compiled instructions against one frame. It holds a copy
// of the buffer's slices: nothing compiles while a program runs.
type machine struct {
	ev   *Evaluator
	lay  Layout
	code Code
	f    *Frame
}

// operands evaluates in's operands a and b, in that order. A constant or
// a column — most of a program's instructions — loads in place (load
// inlines) instead of going through run.
func (m *machine) operands(in *instr) (l, r sqlval.Value, err error) {
	l, ok := m.load(in.a)
	if !ok {
		if l, err = m.run(in.a); err != nil {
			return l, r, err
		}
	}
	if r, ok = m.load(in.b); !ok {
		r, err = m.run(in.b)
	}
	return l, r, err
}

// load reads instruction i's value when it is a constant or a column.
func (m *machine) load(i int32) (sqlval.Value, bool) {
	in := &m.code.ins[i]
	if in.op == opConst {
		return in.val, true
	}
	if in.op == opColumn {
		return m.f.value(Slot{Rel: int(in.a), Col: int(in.b)}), true
	}
	return sqlval.Value{}, false
}

// run evaluates instruction i, operands first, in the interpreter's
// order: both sides of AND/OR (no short circuit), and a CASE operand
// once per arm.
func (m *machine) run(i int32) (sqlval.Value, error) {
	ev := m.ev
	in := &m.code.ins[i]
	switch in.op {
	case opConst:
		return in.val, nil

	case opColumn:
		return m.f.value(Slot{Rel: int(in.a), Col: int(in.b)}), nil

	case opUnary:
		x, err := m.run(in.a)
		if err != nil {
			return sqlval.Null(), err
		}
		return ev.unary(in.uop, x)

	case opAnd, opOr:
		lv, err := m.run(in.a)
		if err != nil {
			return sqlval.Null(), err
		}
		lt, err := ev.Truthy(lv)
		if err != nil {
			return sqlval.Null(), err
		}
		rv, err := m.run(in.b)
		if err != nil {
			return sqlval.Null(), err
		}
		rt, err := ev.Truthy(rv)
		if err != nil {
			return sqlval.Null(), err
		}
		if in.op == opAnd {
			return ev.boolVal(lt.And(rt)), nil
		}
		return ev.boolVal(lt.Or(rt)), nil

	case opBinary:
		lv, rv, err := m.operands(in)
		if err != nil {
			return sqlval.Null(), err
		}
		return ev.binary(in.node.(*sqlast.Binary), lv, rv, in.coll, m.lay)

	case opBetween:
		return m.between(in)

	case opIn:
		return m.in(in)

	case opCase:
		return m.caseArms(in)

	case opCast:
		x, err := m.run(in.a)
		if err != nil {
			return sqlval.Null(), err
		}
		return ev.Cast(x, in.node.(*sqlast.Cast).TypeName)

	case opFunc:
		return m.call(in)

	case opDoubleNegation:
		if ev.Faults.Has(faults.DoubleNegation) {
			return m.run(in.b)
		}
		return m.run(in.a)

	case opIsNotNullOpt:
		if ev.Faults.Has(faults.IsNotNullOpt) {
			return sqlval.Int(1), nil
		}
		return m.run(in.a)
	}
	// opUnsupported.
	return sqlval.Null(), errUnsupported(in.node)
}

// between runs opBetween. The instructions with several operands or an
// operand list run outside run, keeping its frame small for the common
// ones.
func (m *machine) between(in *instr) (sqlval.Value, error) {
	x, err := m.run(in.a)
	if err != nil {
		return sqlval.Null(), err
	}
	lo, err := m.run(in.b)
	if err != nil {
		return sqlval.Null(), err
	}
	hi, err := m.run(in.c)
	if err != nil {
		return sqlval.Null(), err
	}
	return m.ev.between(x, lo, hi, in.coll, in.not)
}

// in runs opIn.
func (m *machine) in(in *instr) (sqlval.Value, error) {
	x, err := m.run(in.a)
	if err != nil {
		return sqlval.Null(), err
	}
	res := sqlval.TriFalse
	for _, it := range m.code.refs[in.lo : in.lo+in.n] {
		v, err := m.run(it)
		if err != nil {
			return sqlval.Null(), err
		}
		eq, err := m.ev.compareOp(x, v, sqlast.OpEq, in.coll)
		if err != nil {
			return sqlval.Null(), err
		}
		res = res.Or(eq)
	}
	if in.not {
		res = res.Not()
	}
	return m.ev.boolVal(res), nil
}

// caseArms runs opCase: the operand, when present, is evaluated again for
// every arm, as the interpreter does.
func (m *machine) caseArms(in *instr) (sqlval.Value, error) {
	arms := m.code.refs[in.lo : in.lo+3*in.n]
	for k := 0; k < len(arms); k += 3 {
		var hit sqlval.TriBool
		if in.a >= 0 {
			opv, err := m.run(in.a)
			if err != nil {
				return sqlval.Null(), err
			}
			wv, err := m.run(arms[k])
			if err != nil {
				return sqlval.Null(), err
			}
			hit, err = m.ev.compareOp(opv, wv, sqlast.OpEq, sqlval.Collation(arms[k+2]))
			if err != nil {
				return sqlval.Null(), err
			}
		} else {
			wv, err := m.run(arms[k])
			if err != nil {
				return sqlval.Null(), err
			}
			hit, err = m.ev.Truthy(wv)
			if err != nil {
				return sqlval.Null(), err
			}
		}
		if hit == sqlval.TriTrue {
			return m.run(arms[k+1])
		}
	}
	if in.c >= 0 {
		return m.run(in.c)
	}
	return sqlval.Null(), nil
}

// call runs opFunc, collecting the arguments in the buffer's scratch.
func (m *machine) call(in *instr) (sqlval.Value, error) {
	args := m.code.args[in.c : in.c+in.n]
	for k, a := range m.code.refs[in.lo : in.lo+in.n] {
		v, err := m.run(a)
		if err != nil {
			return sqlval.Null(), err
		}
		args[k] = v
	}
	return m.ev.Scalar(in.node.(*sqlast.FuncCall).Name, args)
}
