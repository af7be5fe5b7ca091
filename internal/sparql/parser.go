package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// Parse parses a SPARQL-subset query text, possibly containing %param
// placeholders. The grammar:
//
//	query    := prefix* "SELECT" "DISTINCT"? proj "WHERE"? "{" block "}"
//	            groupby? having? order? slice
//	prefix   := "PREFIX" PNAME IRIREF
//	proj     := "*" | (var | aggregate)+
//	aggregate:= "(" func "(" ("*" | "DISTINCT"? var) ")" "AS" var ")"
//	func     := "COUNT" | "SUM" | "MIN" | "MAX" | "AVG"
//	block    := (triples | filter | optional | union)*
//	optional := "OPTIONAL" "{" block "}"
//	union    := "{" block "}" ("UNION" "{" block "}")*
//	triples  := node predobj (";" predobj)* "."
//	predobj  := node node ("," node)*
//	filter   := "FILTER" "(" cmp ("&&" cmp)* ")"
//	cmp      := node OP node
//	groupby  := "GROUP" "BY" var+
//	having   := "HAVING" "(" cmp ("&&" cmp)* ")"
//	order    := "ORDER" "BY" key+
//	key      := var | "ASC" "(" var ")" | "DESC" "(" var ")"
//	slice    := ("LIMIT" integer | "OFFSET" integer)*   (each at most once)
//
// where node is an IRI, prefixed name, literal, number, variable or %param.
// The 'a' keyword abbreviates rdf:type as in Turtle/SPARQL. A bare nested
// group that is not a UNION branch is merged into its enclosing group
// (the filters-at-group-level normal form documented in algebra.go).
func Parse(src string) (*Query, error) {
	p := &parser{lex: lexer{src: src}, prefixes: map[string]string{}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("trailing content after query")
	}
	return q, nil
}

// MustParse is Parse that panics on error; intended for static query
// definitions in generators and tests.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	lex      lexer
	tok      token
	prefixes map[string]string
}

func (p *parser) errf(format string, args ...any) error {
	return p.lex.errf(p.tok.pos, format, args...)
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errf("expected %q", kw)
	}
	return p.advance()
}

func (p *parser) query() (*Query, error) {
	for p.isKeyword("PREFIX") {
		if err := p.prefixDecl(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{}
	if p.isKeyword("DISTINCT") {
		q.Distinct = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	// Projection: '*' is lexed as operator-ish? '*' isn't lexed. Accept
	// either variables or the ident '*'. We lex '*' nowhere, so check raw.
	if err := p.projection(q); err != nil {
		return nil, err
	}
	if p.isKeyword("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	root, err := p.group(0)
	if err != nil {
		return nil, err
	}
	q.Where = root.Patterns
	q.Filters = root.Filters
	q.Unions = root.Unions
	q.Optionals = root.Optionals
	if p.isKeyword("GROUP") {
		if err := p.groupBy(q); err != nil {
			return nil, err
		}
	}
	if p.isKeyword("HAVING") {
		if len(q.GroupBy) == 0 && len(q.Aggs) == 0 {
			return nil, p.errf("HAVING requires GROUP BY or an aggregate")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		having, err := p.compareList()
		if err != nil {
			return nil, err
		}
		q.Having = having
	}
	if p.isKeyword("ORDER") {
		if err := p.orderBy(q); err != nil {
			return nil, err
		}
	}
	// LIMIT and OFFSET are accepted in either order, each at most once
	// (the SPARQL LimitOffsetClauses production).
	seenOffset := false
	for p.isKeyword("LIMIT") || p.isKeyword("OFFSET") {
		kw := strings.ToUpper(p.tok.text)
		if kw == "LIMIT" && q.HasLimit || kw == "OFFSET" && seenOffset {
			return nil, p.errf("duplicate %s clause", kw)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokNumber {
			return nil, p.errf("expected integer after %s", kw)
		}
		n, err := strconv.Atoi(p.tok.text)
		if err != nil || n < 0 {
			return nil, p.errf("invalid %s %q", kw, p.tok.text)
		}
		if kw == "LIMIT" {
			q.Limit = n
			q.HasLimit = true
		} else {
			q.Offset = n
			seenOffset = true
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.validate(q); err != nil {
		return nil, err
	}
	return q, nil
}

// validate enforces the structural rules that make a parsed query
// executable: a non-empty root group and well-formed aggregation.
func (p *parser) validate(q *Query) error {
	if len(q.Where) == 0 && len(q.Unions) == 0 {
		if len(q.Optionals) > 0 {
			return p.errf("OPTIONAL requires a preceding pattern in the group")
		}
		return p.errf("empty WHERE clause")
	}
	if len(q.Aggs) == 0 && len(q.GroupBy) == 0 {
		return nil
	}
	if len(q.Select) == 0 {
		return p.errf("SELECT * cannot be combined with GROUP BY or aggregates")
	}
	keys := map[Var]bool{}
	for _, v := range q.GroupBy {
		keys[v] = true
	}
	aliases := map[Var]bool{}
	for _, a := range q.Aggs {
		aliases[a.As] = true
	}
	for _, v := range q.Select {
		if !aliases[v] && !keys[v] {
			return p.errf("SELECT variable ?%s must be a GROUP BY key or an aggregate alias", v)
		}
	}
	for _, f := range q.Having {
		for _, n := range []Node{f.Left, f.Right} {
			if n.Kind == NodeVar && !aliases[n.Var] && !keys[n.Var] {
				return p.errf("HAVING variable ?%s must be a GROUP BY key or an aggregate alias", n.Var)
			}
		}
	}
	for _, k := range q.OrderBy {
		if !aliases[k.Var] && !keys[k.Var] {
			return p.errf("ORDER BY variable ?%s must be a GROUP BY key or an aggregate alias", k.Var)
		}
	}
	return nil
}

// groupBy parses "GROUP BY var+".
func (p *parser) groupBy(q *Query) error {
	if err := p.advance(); err != nil { // GROUP
		return err
	}
	if err := p.expectKeyword("BY"); err != nil {
		return err
	}
	for p.tok.kind == tokVar {
		q.GroupBy = append(q.GroupBy, Var(p.tok.text))
		if err := p.advance(); err != nil {
			return err
		}
	}
	if len(q.GroupBy) == 0 {
		return p.errf("expected variable after GROUP BY")
	}
	return nil
}

func (p *parser) prefixDecl() error {
	if err := p.advance(); err != nil { // consume PREFIX
		return err
	}
	if p.tok.kind != tokPName || !strings.HasSuffix(p.tok.text, ":") && !strings.Contains(p.tok.text, ":") {
		return p.errf("expected prefix name")
	}
	name := strings.SplitN(p.tok.text, ":", 2)[0]
	if err := p.advance(); err != nil {
		return err
	}
	if p.tok.kind != tokIRI {
		return p.errf("expected IRI in PREFIX declaration")
	}
	p.prefixes[name] = p.tok.text
	return p.advance()
}

func (p *parser) projection(q *Query) error {
	if p.tok.kind == tokStar {
		return p.advance()
	}
	if p.tok.kind != tokVar && p.tok.kind != tokLParen {
		return p.errf("expected '*', variables or aggregates in SELECT")
	}
	for {
		switch p.tok.kind {
		case tokVar:
			q.Select = append(q.Select, Var(p.tok.text))
			if err := p.advance(); err != nil {
				return err
			}
		case tokLParen:
			a, err := p.aggregate()
			if err != nil {
				return err
			}
			for _, prev := range q.Aggs {
				if prev.As == a.As {
					return p.errf("duplicate aggregate alias ?%s", a.As)
				}
			}
			q.Aggs = append(q.Aggs, a)
			q.Select = append(q.Select, a.As)
		default:
			return nil
		}
	}
}

// aggregate parses "( FUNC ( '*' | DISTINCT? var ) AS var )" with the
// opening parenthesis current.
func (p *parser) aggregate() (Aggregate, error) {
	var a Aggregate
	if err := p.advance(); err != nil { // '('
		return a, err
	}
	switch {
	case p.isKeyword("COUNT"):
		a.Func = AggCount
	case p.isKeyword("SUM"):
		a.Func = AggSum
	case p.isKeyword("MIN"):
		a.Func = AggMin
	case p.isKeyword("MAX"):
		a.Func = AggMax
	case p.isKeyword("AVG"):
		a.Func = AggAvg
	default:
		return a, p.errf("expected aggregate function (COUNT, SUM, MIN, MAX, AVG)")
	}
	if err := p.advance(); err != nil {
		return a, err
	}
	if p.tok.kind != tokLParen {
		return a, p.errf("expected '(' after %s", a.Func)
	}
	if err := p.advance(); err != nil {
		return a, err
	}
	if p.isKeyword("DISTINCT") {
		if a.Func != AggCount {
			return a, p.errf("DISTINCT is only supported inside COUNT")
		}
		a.Distinct = true
		if err := p.advance(); err != nil {
			return a, err
		}
	}
	switch {
	case p.tok.kind == tokStar:
		if a.Func != AggCount {
			return a, p.errf("'*' is only valid in COUNT(*)")
		}
		if a.Distinct {
			return a, p.errf("COUNT(DISTINCT *) is not supported")
		}
		if err := p.advance(); err != nil {
			return a, err
		}
	case p.tok.kind == tokVar:
		a.Var = Var(p.tok.text)
		if err := p.advance(); err != nil {
			return a, err
		}
	default:
		return a, p.errf("expected '*' or variable in %s(...)", a.Func)
	}
	if p.tok.kind != tokRParen {
		return a, p.errf("expected ')' to close %s(...)", a.Func)
	}
	if err := p.advance(); err != nil {
		return a, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return a, err
	}
	if p.tok.kind != tokVar {
		return a, p.errf("expected alias variable after AS")
	}
	a.As = Var(p.tok.text)
	if err := p.advance(); err != nil {
		return a, err
	}
	if p.tok.kind != tokRParen {
		return a, p.errf("expected ')' to close the aggregate")
	}
	return a, p.advance()
}

// maxGroupDepth bounds group nesting so adversarial inputs cannot blow
// the parser stack.
const maxGroupDepth = 32

// group parses "{" block "}" into a Group.
func (p *parser) group(depth int) (*Group, error) {
	if depth > maxGroupDepth {
		return nil, p.errf("group nesting deeper than %d", maxGroupDepth)
	}
	if p.tok.kind != tokLBrace {
		return nil, p.errf("expected '{'")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	g := &Group{}
	if err := p.block(g, depth); err != nil {
		return nil, err
	}
	if p.tok.kind != tokRBrace {
		return nil, p.errf("expected '}'")
	}
	return g, p.advance()
}

func (p *parser) block(g *Group, depth int) error {
	for {
		switch {
		case p.tok.kind == tokRBrace:
			return nil
		case p.isKeyword("FILTER"):
			if err := p.filter(g); err != nil {
				return err
			}
		case p.isKeyword("OPTIONAL"):
			if err := p.advance(); err != nil {
				return err
			}
			og, err := p.group(depth + 1)
			if err != nil {
				return err
			}
			if og.Empty() {
				return p.errf("empty OPTIONAL group")
			}
			g.Optionals = append(g.Optionals, og)
		case p.tok.kind == tokLBrace:
			if err := p.groupOrUnion(g, depth); err != nil {
				return err
			}
		case p.tok.kind == tokEOF:
			return p.errf("unterminated WHERE block")
		default:
			if err := p.triples(g); err != nil {
				return err
			}
		}
	}
}

// groupOrUnion parses "{...} (UNION {...})*". A bare group without UNION
// is merged into the enclosing group (see the package grammar comment).
func (p *parser) groupOrUnion(g *Group, depth int) error {
	first, err := p.group(depth + 1)
	if err != nil {
		return err
	}
	if !p.isKeyword("UNION") {
		if first.Empty() && len(first.Filters) == 0 {
			return p.errf("empty group")
		}
		g.Patterns = append(g.Patterns, first.Patterns...)
		g.Filters = append(g.Filters, first.Filters...)
		g.Unions = append(g.Unions, first.Unions...)
		g.Optionals = append(g.Optionals, first.Optionals...)
		return nil
	}
	u := &Union{Branches: []*Group{first}}
	for p.isKeyword("UNION") {
		if err := p.advance(); err != nil {
			return err
		}
		br, err := p.group(depth + 1)
		if err != nil {
			return err
		}
		u.Branches = append(u.Branches, br)
	}
	for _, br := range u.Branches {
		if br.Empty() {
			return p.errf("empty UNION branch")
		}
	}
	g.Unions = append(g.Unions, u)
	return nil
}

func (p *parser) triples(g *Group) error {
	subj, err := p.node()
	if err != nil {
		return err
	}
	for {
		pred, err := p.node()
		if err != nil {
			return err
		}
		for {
			obj, err := p.node()
			if err != nil {
				return err
			}
			g.Patterns = append(g.Patterns, TriplePattern{S: subj, P: pred, O: obj})
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return err
			}
		}
		if p.tok.kind != tokSemicolon {
			break
		}
		if err := p.advance(); err != nil {
			return err
		}
		// Allow a dangling ';' before '.'
		if p.tok.kind == tokDot {
			break
		}
	}
	if p.tok.kind != tokDot {
		return p.errf("expected '.' after triple pattern")
	}
	return p.advance()
}

func (p *parser) filter(g *Group) error {
	if err := p.advance(); err != nil { // consume FILTER
		return err
	}
	fs, err := p.compareList()
	if err != nil {
		return err
	}
	g.Filters = append(g.Filters, fs...)
	return nil
}

// compareList parses "(" cmp ("&&" cmp)* ")" — the body shared by FILTER
// and HAVING.
func (p *parser) compareList() ([]Filter, error) {
	if p.tok.kind != tokLParen {
		return nil, p.errf("expected '('")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var out []Filter
	for {
		left, err := p.node()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokOp {
			return nil, p.errf("expected comparison operator")
		}
		op, err := parseOp(p.tok.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.node()
		if err != nil {
			return nil, err
		}
		out = append(out, Filter{Left: left, Op: op, Right: right})
		if p.tok.kind != tokAnd {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokRParen {
		return nil, p.errf("expected ')'")
	}
	return out, p.advance()
}

func parseOp(s string) (CompareOp, error) {
	switch s {
	case "=":
		return OpEq, nil
	case "!=":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	default:
		return 0, fmt.Errorf("unknown operator %q", s)
	}
}

func (p *parser) orderBy(q *Query) error {
	if err := p.advance(); err != nil { // ORDER
		return err
	}
	if err := p.expectKeyword("BY"); err != nil {
		return err
	}
	for {
		switch {
		case p.tok.kind == tokVar:
			q.OrderBy = append(q.OrderBy, OrderKey{Var: Var(p.tok.text)})
			if err := p.advance(); err != nil {
				return err
			}
		case p.isKeyword("ASC"), p.isKeyword("DESC"):
			desc := strings.EqualFold(p.tok.text, "DESC")
			if err := p.advance(); err != nil {
				return err
			}
			if p.tok.kind != tokLParen {
				return p.errf("expected '(' after ASC/DESC")
			}
			if err := p.advance(); err != nil {
				return err
			}
			if p.tok.kind != tokVar {
				return p.errf("expected variable in ASC/DESC")
			}
			q.OrderBy = append(q.OrderBy, OrderKey{Var: Var(p.tok.text), Desc: desc})
			if err := p.advance(); err != nil {
				return err
			}
			if p.tok.kind != tokRParen {
				return p.errf("expected ')'")
			}
			if err := p.advance(); err != nil {
				return err
			}
		default:
			if len(q.OrderBy) == 0 {
				return p.errf("expected sort key after ORDER BY")
			}
			return nil
		}
	}
}

func (p *parser) node() (Node, error) {
	switch p.tok.kind {
	case tokVar:
		n := VarNode(Var(p.tok.text))
		return n, p.advance()
	case tokParam:
		n := ParamNode(Param(p.tok.text))
		return n, p.advance()
	case tokIRI:
		n := TermNode(rdf.NewIRI(p.tok.text))
		return n, p.advance()
	case tokPName:
		parts := strings.SplitN(p.tok.text, ":", 2)
		base, ok := p.prefixes[parts[0]]
		if !ok {
			return Node{}, p.errf("undeclared prefix %q", parts[0])
		}
		n := TermNode(rdf.NewIRI(base + parts[1]))
		return n, p.advance()
	case tokString:
		var t rdf.Term
		switch {
		case p.tok.lang != "":
			t = rdf.NewLangLiteral(p.tok.text, p.tok.lang)
		case p.tok.dt != "":
			t = rdf.NewTypedLiteral(p.tok.text, p.tok.dt)
		default:
			t = rdf.NewLiteral(p.tok.text)
		}
		return TermNode(t), p.advance()
	case tokNumber:
		txt := p.tok.text
		var t rdf.Term
		if strings.Contains(txt, ".") {
			t = rdf.NewTypedLiteral(txt, rdf.XSDDecimal)
		} else {
			t = rdf.NewTypedLiteral(txt, rdf.XSDInteger)
		}
		return TermNode(t), p.advance()
	case tokIdent:
		if p.tok.text == "a" {
			n := TermNode(rdf.NewIRI(rdf.RDFType))
			return n, p.advance()
		}
		return Node{}, p.errf("unexpected identifier %q in pattern", p.tok.text)
	default:
		return Node{}, p.errf("expected term, variable or parameter")
	}
}
