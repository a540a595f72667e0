package sqlast

import "repro/internal/sqlval"

// Arena hands out the nodes and slices statement generators build, from
// typed, chunked pools. Carved memory never moves: a node or slice stays
// valid, and is never handed out again, until Reset rewinds the arena for
// the next batch of statements. Everything the arena returns is zeroed.
// The zero value is ready to use.
//
// Nodes that must outlive the generator's next Reset stay on the heap:
// the engine's catalog keeps DDL nodes (column defaults and checks, index
// parts and predicates, a view's SELECT) for the life of the database.
type Arena struct {
	lits    chunks[Literal]
	cols    chunks[ColumnRef]
	unaries chunks[Unary]
	bins    chunks[Binary]
	funcs   chunks[FuncCall]
	betws   chunks[Between]
	ins     chunks[InList]
	casts   chunks[Cast]
	colls   chunks[Collate]
	inserts chunks[Insert]
	updates chunks[Update]
	deletes chunks[Delete]
	selects chunks[Select]

	exprs   chunks[Expr]
	rows    chunks[[]Expr]
	strs    chunks[string]
	rcols   chunks[ResultCol]
	trefs   chunks[TableRef]
	assigns chunks[Assignment]
}

// Reset rewinds the arena: every node and slice it handed out before may
// be handed out again.
func (a *Arena) Reset() {
	a.lits.reset()
	a.cols.reset()
	a.unaries.reset()
	a.bins.reset()
	a.funcs.reset()
	a.betws.reset()
	a.ins.reset()
	a.casts.reset()
	a.colls.reset()
	a.inserts.reset()
	a.updates.reset()
	a.deletes.reset()
	a.selects.reset()
	a.exprs.reset()
	a.rows.reset()
	a.strs.reset()
	a.rcols.reset()
	a.trefs.reset()
	a.assigns.reset()
}

// Lit returns a literal node.
func (a *Arena) Lit(v sqlval.Value) *Literal {
	n := a.lits.new()
	n.Val = v
	return n
}

// Col returns a column reference, qualified when table is not empty.
func (a *Arena) Col(table, column string) *ColumnRef {
	n := a.cols.new()
	n.Table, n.Column = table, column
	return n
}

// Unary returns op applied to x.
func (a *Arena) Unary(op UnaryOp, x Expr) *Unary {
	n := a.unaries.new()
	n.Op, n.X = op, x
	return n
}

// Binary returns l op r.
func (a *Arena) Binary(op BinOp, l, r Expr) *Binary {
	n := a.bins.new()
	n.Op, n.L, n.R = op, l, r
	return n
}

// Between returns x [NOT] BETWEEN lo AND hi.
func (a *Arena) Between(not bool, x, lo, hi Expr) *Between {
	n := a.betws.new()
	n.Not, n.X, n.Lo, n.Hi = not, x, lo, hi
	return n
}

// InList returns x [NOT] IN (list...), list carved by the caller (Exprs).
func (a *Arena) InList(not bool, x Expr, list []Expr) *InList {
	n := a.ins.new()
	n.Not, n.X, n.List = not, x, list
	return n
}

// Cast returns CAST(x AS typeName).
func (a *Arena) Cast(x Expr, typeName string) *Cast {
	n := a.casts.new()
	n.X, n.TypeName = x, typeName
	return n
}

// Collate returns x COLLATE coll.
func (a *Arena) Collate(x Expr, coll sqlval.Collation) *Collate {
	n := a.colls.new()
	n.X, n.Coll = x, coll
	return n
}

// Func returns name(args...), the arguments copied into the arena.
func (a *Arena) Func(name string, args ...Expr) *FuncCall {
	n := a.funcs.new()
	n.Name = name
	n.Args = a.exprs.carve(len(args))
	copy(n.Args, args)
	return n
}

// Insert returns an empty INSERT.
func (a *Arena) Insert() *Insert { return a.inserts.new() }

// Update returns an empty UPDATE.
func (a *Arena) Update() *Update { return a.updates.new() }

// Delete returns an empty DELETE.
func (a *Arena) Delete() *Delete { return a.deletes.new() }

// Select returns an empty SELECT.
func (a *Arena) Select() *Select { return a.selects.new() }

// Exprs returns n nil expressions.
func (a *Arena) Exprs(n int) []Expr { return a.exprs.carve(n) }

// Rows returns n nil rows (an INSERT's VALUES list).
func (a *Arena) Rows(n int) [][]Expr { return a.rows.carve(n) }

// Strings returns n empty strings.
func (a *Arena) Strings(n int) []string { return a.strs.carve(n) }

// ResultCols returns n zero result columns.
func (a *Arena) ResultCols(n int) []ResultCol { return a.rcols.carve(n) }

// TableRefs returns n zero table references.
func (a *Arena) TableRefs(n int) []TableRef { return a.trefs.carve(n) }

// Assignments returns n zero SET clauses.
func (a *Arena) Assignments(n int) []Assignment { return a.assigns.carve(n) }

// chunkLen is the element count of a pool's chunks; a larger request gets
// a chunk of its own size.
const chunkLen = 64

// chunks is one typed pool: fixed chunks carved front to back. Carving
// skips a chunk's unused tail when the request does not fit, and appends
// a new chunk only once every chunk is used, so after a few Resets the
// pool serves its caller without allocating.
type chunks[T any] struct {
	list [][]T
	cur  int // chunk being carved
	off  int // its carved prefix
}

// carve returns n zeroed elements, length and capacity n: appending to
// the slice reallocates instead of overwriting its neighbours.
func (c *chunks[T]) carve(n int) []T {
	if n == 0 {
		return nil
	}
	for ; c.cur < len(c.list); c.cur, c.off = c.cur+1, 0 {
		if ch := c.list[c.cur]; c.off+n <= len(ch) {
			out := ch[c.off : c.off+n : c.off+n]
			c.off += n
			clear(out)
			return out
		}
	}
	ch := make([]T, max(chunkLen, n))
	c.list = append(c.list, ch)
	c.cur, c.off = len(c.list)-1, n
	return ch[:n:n]
}

// new returns one zeroed element.
func (c *chunks[T]) new() *T { return &c.carve(1)[0] }

// reset rewinds the pool to its first chunk.
func (c *chunks[T]) reset() { c.cur, c.off = 0, 0 }
