package sparql

import (
	"strings"

	"repro/internal/rdf"
)

// This file implements the SPARQL-Update subset the updatable store
// needs: ground INSERT DATA / DELETE DATA, plus the pattern-driven
// DELETE/INSERT WHERE forms. The grammar:
//
//	update := prefix* op (";" op)* ";"?
//	op     := ("INSERT" | "DELETE") "DATA" "{" data "}"
//	        | "DELETE" tmpl "INSERT" tmpl "WHERE" "{" block "}"
//	        | "DELETE" tmpl "WHERE" "{" block "}"
//	        | "INSERT" tmpl "WHERE" "{" block "}"
//	        | "DELETE" "WHERE" "{" block "}"       (pattern doubles as template)
//	tmpl   := "{" (triple patterns, variables allowed) "}"
//	data   := (node predobj (";" predobj)* ".")*
//
// where every DATA node must be a constant term — variables and
// %parameters are update-parse errors there. WHERE blocks are the query
// grammar's BGP + FILTER shape (no OPTIONAL/UNION); every template
// variable must be bound by the WHERE block so instantiation always
// yields ground triples. PREFIX declarations, the 'a' keyword and the
// ';'/',' predicate-object abbreviations work as in queries.

// UpdateOp is one operation of an update request: a ground INSERT
// DATA/DELETE DATA batch (Where == nil), or a pattern-driven
// DELETE/INSERT WHERE modification (Where != nil) whose templates are
// instantiated once per WHERE solution.
type UpdateOp struct {
	Insert  bool // true for INSERT DATA, false for DELETE DATA
	Triples []rdf.Triple

	// WHERE-form fields: the delete and insert templates (at least one
	// non-empty) and the BGP + filters the templates are instantiated
	// from. Insert/Triples above are unused for WHERE-form ops.
	DeleteTmpl   []TriplePattern
	InsertTmpl   []TriplePattern
	Where        []TriplePattern
	WhereFilters []Filter
}

// IsWhere reports whether the op is a pattern-driven DELETE/INSERT WHERE
// modification.
func (op *UpdateOp) IsWhere() bool { return len(op.Where) > 0 }

// WhereQuery returns the SELECT * query executing the op's WHERE block.
func (op *UpdateOp) WhereQuery() *Query {
	return &Query{Where: op.Where, Filters: op.WhereFilters}
}

// Update is a parsed SPARQL-Update request: a sequence of operations
// applied in order.
type Update struct {
	Ops []UpdateOp
}

// InsertCount returns the total number of triples named by ground
// INSERT DATA operations (before set semantics are applied by the
// store); WHERE-form inserts are data-dependent and not counted.
func (u *Update) InsertCount() int { return u.count(true) }

// DeleteCount returns the total number of triples named by ground
// DELETE DATA operations.
func (u *Update) DeleteCount() int { return u.count(false) }

func (u *Update) count(insert bool) int {
	n := 0
	for _, op := range u.Ops {
		if !op.IsWhere() && op.Insert == insert {
			n += len(op.Triples)
		}
	}
	return n
}

// HasWhere reports whether any operation is a pattern-driven
// DELETE/INSERT WHERE modification.
func (u *Update) HasWhere() bool {
	for i := range u.Ops {
		if u.Ops[i].IsWhere() {
			return true
		}
	}
	return false
}

// String renders the update in parseable syntax. DELETE WHERE shorthand
// is normalized to its explicit DELETE {tmpl} WHERE {tmpl} form.
func (u *Update) String() string {
	var b strings.Builder
	for i := range u.Ops {
		op := &u.Ops[i]
		if i > 0 {
			b.WriteString(" ;\n")
		}
		if !op.IsWhere() {
			if op.Insert {
				b.WriteString("INSERT DATA {\n")
			} else {
				b.WriteString("DELETE DATA {\n")
			}
			for _, t := range op.Triples {
				b.WriteString("  " + t.String() + "\n")
			}
			b.WriteString("}")
			continue
		}
		writeTmpl := func(kw string, tmpl []TriplePattern) {
			b.WriteString(kw + " {\n")
			for _, tp := range tmpl {
				b.WriteString("  " + tp.String() + "\n")
			}
			b.WriteString("} ")
		}
		if len(op.DeleteTmpl) > 0 {
			writeTmpl("DELETE", op.DeleteTmpl)
		}
		if len(op.InsertTmpl) > 0 {
			writeTmpl("INSERT", op.InsertTmpl)
		}
		b.WriteString("WHERE {\n")
		for _, tp := range op.Where {
			b.WriteString("  " + tp.String() + "\n")
		}
		for _, f := range op.WhereFilters {
			b.WriteString("  " + f.String() + "\n")
		}
		b.WriteString("}")
	}
	return b.String()
}

// ParseUpdate parses a SPARQL-Update request (INSERT DATA / DELETE DATA
// operations, ';'-separated).
func ParseUpdate(src string) (*Update, error) {
	p := &parser{lex: lexer{src: src}, prefixes: map[string]string{}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	u, err := p.update()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("trailing content after update")
	}
	return u, nil
}

// MustParseUpdate is ParseUpdate that panics on error; intended for
// static definitions in tests and examples.
func MustParseUpdate(src string) *Update {
	u, err := ParseUpdate(src)
	if err != nil {
		panic(err)
	}
	return u
}

func (p *parser) update() (*Update, error) {
	for p.isKeyword("PREFIX") {
		if err := p.prefixDecl(); err != nil {
			return nil, err
		}
	}
	u := &Update{}
	for {
		var insert bool
		switch {
		case p.isKeyword("INSERT"):
			insert = true
		case p.isKeyword("DELETE"):
			insert = false
		default:
			if len(u.Ops) == 0 {
				return nil, p.errf("expected INSERT, DELETE or DATA operation")
			}
			return u, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.isKeyword("DATA") {
			op, err := p.modifyOp(insert)
			if err != nil {
				return nil, err
			}
			u.Ops = append(u.Ops, op)
			if p.tok.kind != tokSemicolon {
				return u, nil
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind == tokEOF {
				return u, nil
			}
			continue
		}
		if err := p.advance(); err != nil { // consume DATA
			return nil, err
		}
		triples, err := p.dataBlock()
		if err != nil {
			return nil, err
		}
		u.Ops = append(u.Ops, UpdateOp{Insert: insert, Triples: triples})
		if p.tok.kind != tokSemicolon {
			return u, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Allow a trailing ';' after the last operation.
		if p.tok.kind == tokEOF {
			return u, nil
		}
	}
}

// dataBlock parses '{' ground triples '}': statements of the query
// grammar's triples (with its ';'/',' abbreviations) whose every node must
// be a constant term and which must each form a valid RDF triple.
func (p *parser) dataBlock() ([]rdf.Triple, error) {
	if p.tok.kind != tokLBrace {
		return nil, p.errf("expected '{' after DATA")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	g := &Group{}
	var out []rdf.Triple
	for p.tok.kind != tokRBrace {
		if p.tok.kind == tokEOF {
			return nil, p.errf("unterminated DATA block")
		}
		from := len(g.Patterns)
		if err := p.triples(g); err != nil {
			return nil, err
		}
		for _, tp := range g.Patterns[from:] {
			for _, n := range [3]Node{tp.S, tp.P, tp.O} {
				switch n.Kind {
				case NodeVar:
					return nil, p.errf("variable ?%s not allowed in DATA block (ground triples only)", n.Var)
				case NodeParam:
					return nil, p.errf("parameter %%%s not allowed in DATA block (ground triples only)", n.Param)
				}
			}
			t := rdf.Triple{S: tp.S.Term, P: tp.P.Term, O: tp.O.Term}
			if !t.Valid() {
				return nil, p.errf("invalid triple %s (subject must be IRI or blank, predicate an IRI)", t)
			}
			out = append(out, t)
		}
	}
	return out, p.advance() // consume '}'
}

// modifyOp parses the pattern-driven forms with the leading INSERT or
// DELETE keyword already consumed:
//
//	DELETE {tmpl} INSERT {tmpl} WHERE {block}
//	DELETE {tmpl} WHERE {block} | INSERT {tmpl} WHERE {block}
//	DELETE WHERE {block}                 (block doubles as the template)
func (p *parser) modifyOp(insert bool) (UpdateOp, error) {
	var op UpdateOp
	if insert {
		tmpl, err := p.templateBlock()
		if err != nil {
			return op, err
		}
		op.InsertTmpl = tmpl
	} else if p.isKeyword("WHERE") {
		// DELETE WHERE {block}: the WHERE patterns double as the
		// delete template; parsed below.
	} else {
		tmpl, err := p.templateBlock()
		if err != nil {
			return op, err
		}
		op.DeleteTmpl = tmpl
		if p.isKeyword("INSERT") {
			if err := p.advance(); err != nil {
				return op, err
			}
			ins, err := p.templateBlock()
			if err != nil {
				return op, err
			}
			op.InsertTmpl = ins
		}
	}
	if err := p.expectKeyword("WHERE"); err != nil {
		return op, err
	}
	g, err := p.group(0)
	if err != nil {
		return op, err
	}
	if len(g.Unions) > 0 || len(g.Optionals) > 0 {
		return op, p.errf("the WHERE block of an update must be a basic graph pattern (no OPTIONAL/UNION)")
	}
	if len(g.Patterns) == 0 {
		return op, p.errf("empty WHERE block in update")
	}
	op.Where = g.Patterns
	op.WhereFilters = g.Filters
	if op.DeleteTmpl == nil && op.InsertTmpl == nil {
		// DELETE WHERE shorthand.
		op.DeleteTmpl = g.Patterns
	}
	return op, p.validateModify(&op)
}

// validateModify enforces that templates and WHERE blocks are
// parameter-free and that every template variable is bound by the WHERE
// block, so instantiation always yields ground triples.
func (p *parser) validateModify(op *UpdateOp) error {
	bound := map[Var]bool{}
	for _, tp := range op.Where {
		for _, n := range []Node{tp.S, tp.P, tp.O} {
			switch n.Kind {
			case NodeParam:
				return p.errf("parameter %%%s not allowed in an update WHERE block", n.Param)
			case NodeVar:
				bound[n.Var] = true
			}
		}
	}
	for _, f := range op.WhereFilters {
		for _, n := range []Node{f.Left, f.Right} {
			if n.Kind == NodeParam {
				return p.errf("parameter %%%s not allowed in an update WHERE block", n.Param)
			}
		}
	}
	for _, tmpl := range [][]TriplePattern{op.DeleteTmpl, op.InsertTmpl} {
		for _, tp := range tmpl {
			for _, n := range []Node{tp.S, tp.P, tp.O} {
				switch n.Kind {
				case NodeParam:
					return p.errf("parameter %%%s not allowed in an update template", n.Param)
				case NodeVar:
					if !bound[n.Var] {
						return p.errf("template variable ?%s is not bound by the WHERE block", n.Var)
					}
				}
			}
		}
	}
	return nil
}

// templateBlock parses "{" triple patterns "}" where variables are
// allowed; FILTERs and nested groups are not.
func (p *parser) templateBlock() ([]TriplePattern, error) {
	if p.tok.kind != tokLBrace {
		return nil, p.errf("expected '{' to open an update template")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	g := &Group{}
	for p.tok.kind != tokRBrace {
		if p.tok.kind == tokEOF {
			return nil, p.errf("unterminated update template")
		}
		if p.isKeyword("FILTER") || p.tok.kind == tokLBrace {
			return nil, p.errf("update templates hold triple patterns only")
		}
		if err := p.triples(g); err != nil {
			return nil, err
		}
	}
	if err := p.advance(); err != nil { // consume '}'
		return nil, err
	}
	if len(g.Patterns) == 0 {
		return nil, p.errf("empty update template")
	}
	return g.Patterns, nil
}
