// Package printer renders MiniJS ASTs back to source text.
//
// The Code Instrumentor (§4.3 of the paper) rewrites application ASTs and
// relies on this package to produce the privacy-managed source that is
// deployed in place of the original. Output is deterministic and re-parses
// to an equivalent tree; expressions are parenthesized conservatively where
// precedence could otherwise change.
//
// Print and SafePrint only read the tree they print: callers print ASTs
// that a pipeline cache shares between goroutines. Stamp prints the same
// text and, as it goes, rewrites the tree it owns into the one
// parser.Parse builds from that text, so the deploy path can run the tree
// without parsing the text again.
package printer

import (
	"fmt"
	"strconv"
	"strings"

	"turnstile/internal/ast"
	"turnstile/internal/guard"
	"turnstile/internal/lexer"
)

// maxPrintDepth bounds AST nesting during the walk. It is far above the
// parser's maxParseDepth because instrumentation wraps nodes in extra call
// layers, but still low enough that the walk cannot overflow the Go stack
// (which recover cannot catch).
const maxPrintDepth = 100_000

// printAbort is the panic sentinel carrying the depth-limit error out of
// the recursive walk; SafePrint recovers it.
type printAbort struct{ err *guard.PipelineError }

// Print renders a program as source text. On ASTs nested beyond
// maxPrintDepth it panics with a sentinel that SafePrint converts to a
// typed error; callers printing untrusted (e.g. fuzzer-built) trees should
// use SafePrint.
func Print(prog *ast.Program) string {
	p := &printer{}
	for _, s := range prog.Body {
		p.stmt(s, 0)
	}
	return p.b.String()
}

// SafePrint is Print with the depth limit surfaced as a *guard.PipelineError
// instead of a panic.
func SafePrint(prog *ast.Program) (string, error) {
	return (&printer{}).program(prog)
}

// Stamp prints prog exactly as SafePrint does and, while printing,
// rewrites prog into the tree parser.Parse builds from the printed text,
// except for node IDs:
//
//   - every node's position becomes the one the parser gives it in the
//     text (a node anchored at its first token gets that token's
//     position, an operator or suffix node its leftmost operand's);
//   - a then-branch the text must brace (see danglesElse) is wrapped in
//     the block the parser reads back, with a fresh ID below the new
//     prog.MaxID;
//   - a function name the text cannot carry (arrows, methods keyed by a
//     string) is dropped, and a class method's function takes the
//     method's name, as the parser names them.
//
// prog must not share nodes with a tree anyone else reads. On error prog
// is partly rewritten and must not be run.
func Stamp(prog *ast.Program) (string, error) {
	p := &printer{stamp: true, line: 1, nextID: prog.MaxID}
	prog.Loc = ast.Pos{}
	out, err := p.program(prog)
	prog.MaxID = p.nextID
	return out, err
}

// program prints every statement of prog, surfacing the depth limit as
// an error.
func (p *printer) program(prog *ast.Program) (out string, err error) {
	defer func() {
		if r := recover(); r != nil {
			if pa, ok := r.(printAbort); ok {
				out, err = "", pa.err
				return
			}
			panic(r)
		}
	}()
	for _, s := range prog.Body {
		p.stmt(s, 0)
	}
	return p.b.String(), nil
}

// PrintExpr renders a single expression.
func PrintExpr(e ast.Expr) string {
	p := &printer{}
	p.expr(e, 0)
	return p.b.String()
}

// PrintStmt renders a single statement at the given indent level.
func PrintStmt(s ast.Stmt) string {
	p := &printer{}
	p.stmt(s, 0)
	return p.b.String()
}

type printer struct {
	b     strings.Builder
	depth int

	// Stamp state: the line of the text up to scanned, the offset that
	// line starts at, and the next free node ID.
	stamp     bool
	line      int
	lineStart int
	scanned   int
	nextID    int
}

// here returns the position the lexer gives the next byte written.
func (p *printer) here() ast.Pos {
	s := p.b.String()
	for {
		i := strings.IndexByte(s[p.scanned:], '\n')
		if i < 0 {
			break
		}
		p.line++
		p.scanned += i + 1
		p.lineStart = p.scanned
	}
	p.scanned = len(s)
	return ast.Pos{Line: p.line, Col: len(s) - p.lineStart + 1}
}

// mark stamps n with the position of the next byte written: the parser
// anchors n at the token that starts there.
func (p *printer) mark(n *ast.NodeInfo) {
	if p.stamp {
		n.Loc = p.here()
	}
}

// inherit stamps n with an already printed child's position: the parser
// anchors operator and suffix nodes at their leftmost operand.
func (p *printer) inherit(n *ast.NodeInfo, from ast.Node) {
	if p.stamp {
		n.Loc = from.Pos()
	}
}

func (p *printer) ws(indent int) { p.b.WriteString(strings.Repeat("  ", indent)) }

// enter charges one AST nesting level; leave releases it.
func (p *printer) enter() {
	p.depth++
	if p.depth > maxPrintDepth {
		panic(printAbort{&guard.PipelineError{
			Stage: "print",
			Cause: fmt.Errorf("AST nesting exceeds %d levels", maxPrintDepth),
		}})
	}
}

func (p *printer) leave() { p.depth-- }

func (p *printer) stmt(s ast.Stmt, indent int) {
	p.enter()
	defer p.leave()
	p.ws(indent)
	switch x := s.(type) {
	case *ast.VarDecl:
		p.varDeclHead(x)
		p.b.WriteString(";\n")
	case *ast.FuncDecl:
		p.funcLit(x.Fn, indent, x)
		p.b.WriteString("\n")
	case *ast.ExprStmt:
		p.mark(&x.NodeInfo)
		// Statements whose leftmost token would be '{' or 'function' are
		// ambiguous at statement position; wrap them in parens.
		if startsAmbiguously(x.X) {
			p.b.WriteString("(")
			p.expr(x.X, 0)
			p.b.WriteString(")")
		} else {
			p.expr(x.X, 0)
		}
		p.b.WriteString(";\n")
	case *ast.ReturnStmt:
		p.mark(&x.NodeInfo)
		p.b.WriteString("return")
		if x.Value != nil {
			p.b.WriteString(" ")
			p.expr(x.Value, 0)
		}
		p.b.WriteString(";\n")
	case *ast.IfStmt:
		p.ifChain(x, indent)
	case *ast.ForStmt:
		p.mark(&x.NodeInfo)
		p.b.WriteString("for (")
		switch init := x.Init.(type) {
		case *ast.VarDecl:
			p.varDeclHead(init)
		case *ast.ExprStmt:
			p.mark(&init.NodeInfo)
			p.expr(init.X, 0)
		}
		p.b.WriteString("; ")
		if x.Cond != nil {
			p.expr(x.Cond, 0)
		}
		p.b.WriteString("; ")
		if x.Post != nil {
			p.expr(x.Post, 0)
		}
		p.b.WriteString(")")
		p.body(&x.Body, indent, false, "")
	case *ast.ForInStmt:
		p.mark(&x.NodeInfo)
		p.b.WriteString("for (")
		if x.Decl {
			p.b.WriteString(x.DeclKind.String())
			p.b.WriteString(" ")
		}
		p.b.WriteString(x.Name)
		if x.Kind == ast.ForIn {
			p.b.WriteString(" in ")
		} else {
			p.b.WriteString(" of ")
		}
		p.expr(x.Object, 0)
		p.b.WriteString(")")
		p.body(&x.Body, indent, false, "")
	case *ast.WhileStmt:
		p.mark(&x.NodeInfo)
		p.b.WriteString("while (")
		p.expr(x.Cond, 0)
		p.b.WriteString(")")
		p.body(&x.Body, indent, false, "")
	case *ast.DoWhileStmt:
		p.mark(&x.NodeInfo)
		p.b.WriteString("do")
		p.body(&x.Body, indent, false, "while (")
		p.expr(x.Cond, 0)
		p.b.WriteString(");\n")
	case *ast.BlockStmt:
		p.block(x, indent)
		p.b.WriteString("\n")
	case *ast.BreakStmt:
		p.mark(&x.NodeInfo)
		p.b.WriteString("break;\n")
	case *ast.ContinueStmt:
		p.mark(&x.NodeInfo)
		p.b.WriteString("continue;\n")
	case *ast.ThrowStmt:
		p.mark(&x.NodeInfo)
		p.b.WriteString("throw ")
		p.expr(x.Value, 0)
		p.b.WriteString(";\n")
	case *ast.TryStmt:
		p.mark(&x.NodeInfo)
		p.b.WriteString("try ")
		p.block(x.Body, indent)
		if x.Catch != nil {
			p.b.WriteString(" catch ")
			if x.CatchVar != "" {
				fmt.Fprintf(&p.b, "(%s) ", x.CatchVar)
			}
			p.block(x.Catch, indent)
		}
		if x.Finally != nil {
			p.b.WriteString(" finally ")
			p.block(x.Finally, indent)
		}
		p.b.WriteString("\n")
	case *ast.SwitchStmt:
		p.mark(&x.NodeInfo)
		p.b.WriteString("switch (")
		p.expr(x.Disc, 0)
		p.b.WriteString(") {\n")
		for _, c := range x.Cases {
			p.ws(indent + 1)
			p.mark(&c.NodeInfo)
			if c.Test != nil {
				p.b.WriteString("case ")
				p.expr(c.Test, 0)
				p.b.WriteString(":\n")
			} else {
				p.b.WriteString("default:\n")
			}
			for _, s := range c.Body {
				p.stmt(s, indent+2)
			}
		}
		p.ws(indent)
		p.b.WriteString("}\n")
	case *ast.ClassDecl:
		p.mark(&x.NodeInfo)
		p.b.WriteString("class ")
		p.b.WriteString(x.Name)
		if x.SuperClass != nil {
			p.b.WriteString(" extends ")
			// the parser reads a call-level expression here
			p.expr(x.SuperClass, precCall)
		}
		p.b.WriteString(" {\n")
		for _, m := range x.Methods {
			p.ws(indent + 1)
			p.mark(&m.NodeInfo)
			if m.Static {
				p.b.WriteString("static ")
			}
			if m.Fn.Async {
				p.b.WriteString("async ")
			}
			if isIdentKey(m.Name) || lexer.IsKeyword(m.Name) {
				p.b.WriteString(m.Name)
			} else {
				p.b.WriteString(quoteJS(m.Name))
			}
			if p.stamp {
				m.Fn.Name = m.Name
			}
			p.mark(&m.Fn.NodeInfo)
			p.params(m.Fn.Params)
			p.b.WriteString(" ")
			p.block(m.Fn.Body, indent+1)
			p.b.WriteString("\n")
		}
		p.ws(indent)
		p.b.WriteString("}\n")
	case *ast.EmptyStmt:
		p.mark(&x.NodeInfo)
		p.b.WriteString(";\n")
	default:
		panic(fmt.Sprintf("printer: unknown statement %T", s))
	}
}

// ifChain prints if/else-if chains without re-indenting each else-if.
func (p *printer) ifChain(x *ast.IfStmt, indent int) {
	p.mark(&x.NodeInfo)
	p.b.WriteString("if (")
	p.expr(x.Cond, 0)
	p.b.WriteString(")")
	if x.Else == nil {
		p.body(&x.Then, indent, false, "")
		return
	}
	p.body(&x.Then, indent, danglesElse(x.Then), "else")
	if ei, ok := x.Else.(*ast.IfStmt); ok {
		p.b.WriteString(" ")
		p.ifChain(ei, indent)
		return
	}
	p.body(&x.Else, indent, false, "")
}

// danglesElse reports whether s, printed bare, ends in an if without an
// else, which would take an else printed after s. The parser never builds
// such a then-branch.
func danglesElse(s ast.Stmt) bool {
	switch x := s.(type) {
	case *ast.IfStmt:
		return x.Else == nil || danglesElse(x.Else)
	case *ast.ForStmt:
		return danglesElse(x.Body)
	case *ast.ForInStmt:
		return danglesElse(x.Body)
	case *ast.WhileStmt:
		return danglesElse(x.Body)
	}
	return false
}

// body prints the loop or branch body *s as the source had it, a block
// after a space or a bare statement on a line of its own, then next: the
// keyword that continues the statement, or "" to end the line. MiniJS
// scopes a var to its block, so bracing a bare body would change what it
// declares; brace does so only where the bare text would not parse back,
// and Stamp puts the block the parser reads into the tree at *s.
func (p *printer) body(s *ast.Stmt, indent int, brace bool, next string) {
	blk, ok := (*s).(*ast.BlockStmt)
	if !ok && !brace {
		p.b.WriteString("\n")
		p.stmt(*s, indent+1)
		if next != "" {
			p.ws(indent)
			p.b.WriteString(next)
		}
		return
	}
	if !ok {
		blk = &ast.BlockStmt{Body: []ast.Stmt{*s}}
		if p.stamp {
			blk.ID = p.nextID
			p.nextID++
			*s = blk
		}
	}
	p.b.WriteString(" ")
	p.block(blk, indent)
	if next == "" {
		next = "\n"
	} else {
		next = " " + next
	}
	p.b.WriteString(next)
}

func (p *printer) block(blk *ast.BlockStmt, indent int) {
	p.mark(&blk.NodeInfo)
	p.b.WriteString("{\n")
	for _, s := range blk.Body {
		p.stmt(s, indent+1)
	}
	p.ws(indent)
	p.b.WriteString("}")
}

func (p *printer) varDeclHead(vd *ast.VarDecl) {
	p.mark(&vd.NodeInfo)
	p.b.WriteString(vd.Kind.String())
	p.b.WriteString(" ")
	for i, d := range vd.Decls {
		if i > 0 {
			p.b.WriteString(", ")
		}
		p.mark(&d.NodeInfo)
		p.b.WriteString(d.Name)
		if d.Init != nil {
			p.b.WriteString(" = ")
			p.expr(d.Init, precAssign)
		}
	}
}

func (p *printer) params(params []*ast.Param) {
	p.b.WriteString("(")
	for i, pa := range params {
		if i > 0 {
			p.b.WriteString(", ")
		}
		p.mark(&pa.NodeInfo)
		if pa.Rest {
			p.b.WriteString("...")
		}
		p.b.WriteString(pa.Name)
	}
	p.b.WriteString(")")
}

// funcLit prints a function literal; decl is its declaration, or nil for
// a function expression.
func (p *printer) funcLit(fn *ast.FuncLit, indent int, decl *ast.FuncDecl) {
	if fn.Arrow {
		p.mark(&fn.NodeInfo)
		if p.stamp {
			fn.Name = ""
		}
		if fn.Async {
			p.b.WriteString("async ")
		}
		p.params(fn.Params)
		p.b.WriteString(" => ")
		if fn.Body != nil {
			p.block(fn.Body, indent)
		} else if _, isObj := leftmost(fn.ExprRet).(*ast.ObjectLit); isObj {
			// an expression body starting with '{' would parse as a block
			p.b.WriteString("(")
			p.expr(fn.ExprRet, 0)
			p.b.WriteString(")")
		} else {
			p.expr(fn.ExprRet, precAssign)
		}
		return
	}
	if fn.Async {
		p.b.WriteString("async ")
	}
	// a declaration is named by the parser's identifier rule, contextual
	// keywords included; a function expression's printable name must be a
	// plain identifier, and shorthand methods with string/numeric keys
	// carry the raw key in Name
	name := fn.Name
	if decl != nil {
		p.mark(&decl.NodeInfo)
		name = decl.Name
	} else if !isIdentKey(name) || lexer.IsKeyword(name) {
		name = ""
	}
	p.b.WriteString("function")
	if name != "" {
		p.b.WriteString(" ")
		p.b.WriteString(name)
	}
	if p.stamp {
		fn.Name = name
	}
	p.mark(&fn.NodeInfo)
	p.params(fn.Params)
	p.b.WriteString(" ")
	p.block(fn.Body, indent)
}

// Expression precedence levels, mirroring the parser's table. An expression
// is parenthesized when its own precedence is lower than the context's.
const (
	precSeq    = 0
	precAssign = 1
	precCond   = 2
	precBinMin = 3 // binary levels occupy 3..14 (parser prec + 2)
	precUnary  = 15
	precCall   = 16
	precAtom   = 17
)

var printBinPrec = map[string]int{
	"??": 3, "||": 3, "&&": 4,
	"|": 5, "^": 6, "&": 7,
	"==": 8, "!=": 8, "===": 8, "!==": 8,
	"<": 9, ">": 9, "<=": 9, ">=": 9, "in": 9, "instanceof": 9,
	"<<": 10, ">>": 10, ">>>": 10,
	"+": 11, "-": 11,
	"*": 12, "/": 12, "%": 12,
	"**": 13,
}

func (p *printer) expr(e ast.Expr, ctx int) {
	p.enter()
	defer p.leave()
	switch x := e.(type) {
	case *ast.Ident:
		p.mark(&x.NodeInfo)
		p.b.WriteString(x.Name)
	case *ast.NumberLit:
		p.mark(&x.NodeInfo)
		p.b.WriteString(formatNumber(x.Value))
	case *ast.StringLit:
		p.mark(&x.NodeInfo)
		p.b.WriteString(quoteJS(x.Value))
	case *ast.TemplateLit:
		p.mark(&x.NodeInfo)
		p.b.WriteString("`")
		for i, q := range x.Quasis {
			p.b.WriteString(escapeTemplate(q))
			if i < len(x.Exprs) {
				p.b.WriteString("${")
				p.expr(x.Exprs[i], 0)
				p.b.WriteString("}")
			}
		}
		p.b.WriteString("`")
	case *ast.BoolLit:
		p.mark(&x.NodeInfo)
		if x.Value {
			p.b.WriteString("true")
		} else {
			p.b.WriteString("false")
		}
	case *ast.NullLit:
		p.mark(&x.NodeInfo)
		p.b.WriteString("null")
	case *ast.UndefinedLit:
		p.mark(&x.NodeInfo)
		p.b.WriteString("undefined")
	case *ast.ThisExpr:
		p.mark(&x.NodeInfo)
		p.b.WriteString("this")
	case *ast.ArrayLit:
		p.mark(&x.NodeInfo)
		p.b.WriteString("[")
		for i, el := range x.Elems {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.expr(el, precAssign)
		}
		p.b.WriteString("]")
	case *ast.ObjectLit:
		p.mark(&x.NodeInfo)
		p.b.WriteString("{ ")
		for i, prop := range x.Props {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.mark(&prop.NodeInfo)
			switch {
			case prop.Spread:
				p.b.WriteString("...")
				p.expr(prop.Value, precAssign)
			case prop.Computed:
				p.b.WriteString("[")
				p.expr(prop.KeyExpr, 0)
				p.b.WriteString("]: ")
				p.expr(prop.Value, precAssign)
			default:
				if isIdentKey(prop.Key) {
					p.b.WriteString(prop.Key)
				} else {
					p.b.WriteString(quoteJS(prop.Key))
				}
				p.b.WriteString(": ")
				p.expr(prop.Value, precAssign)
			}
		}
		p.b.WriteString(" }")
	case *ast.FuncLit:
		// arrows sit at assignment precedence; function expressions only
		// need parens at call/member positions
		needParens := ctx >= precCall
		if x.Arrow {
			needParens = ctx > precAssign
		}
		if needParens {
			p.b.WriteString("(")
		}
		p.funcLit(x, 0, nil)
		if needParens {
			p.b.WriteString(")")
		}
	case *ast.CallExpr:
		p.paren(ctx > precCall, func() {
			p.expr(x.Callee, precCall)
			p.inherit(&x.NodeInfo, x.Callee)
			p.args(x.Args)
		})
	case *ast.NewExpr:
		p.paren(ctx > precCall, func() {
			p.mark(&x.NodeInfo)
			p.b.WriteString("new ")
			p.paren(newCalleeNeedsParens(x.Callee), func() { p.expr(x.Callee, precCall) })
			p.args(x.Args)
		})
	case *ast.MemberExpr:
		p.paren(ctx > precCall, func() {
			// Number literals need parens before '.' (1.x is a parse error).
			if _, isNum := x.Object.(*ast.NumberLit); isNum {
				p.b.WriteString("(")
				p.expr(x.Object, 0)
				p.b.WriteString(")")
			} else {
				p.expr(x.Object, precCall)
			}
			p.inherit(&x.NodeInfo, x.Object)
			if x.Computed {
				p.b.WriteString("[")
				p.expr(x.Index, 0)
				p.b.WriteString("]")
			} else {
				p.b.WriteString(".")
				p.b.WriteString(x.Property)
			}
		})
	case *ast.BinaryExpr:
		prec := printBinPrec[x.Op]
		p.paren(ctx > prec, func() {
			p.expr(x.Left, prec)
			p.inherit(&x.NodeInfo, x.Left)
			p.b.WriteString(" " + x.Op + " ")
			p.expr(x.Right, prec+1)
		})
	case *ast.LogicalExpr:
		prec := printBinPrec[x.Op]
		p.paren(ctx > prec, func() {
			p.expr(x.Left, prec)
			p.inherit(&x.NodeInfo, x.Left)
			p.b.WriteString(" " + x.Op + " ")
			p.expr(x.Right, prec+1)
		})
	case *ast.UnaryExpr:
		p.paren(ctx > precUnary, func() {
			p.mark(&x.NodeInfo)
			p.b.WriteString(x.Op)
			if len(x.Op) > 1 || mergesWithSign(x.Op, x.X) {
				p.b.WriteString(" ")
			}
			p.expr(x.X, precUnary)
		})
	case *ast.UpdateExpr:
		p.paren(ctx > precUnary, func() {
			if x.Prefix {
				p.mark(&x.NodeInfo)
				p.b.WriteString(x.Op)
				p.expr(x.X, precUnary)
			} else {
				p.expr(x.X, precCall)
				p.inherit(&x.NodeInfo, x.X)
				p.b.WriteString(x.Op)
			}
		})
	case *ast.AssignExpr:
		p.paren(ctx > precAssign, func() {
			p.expr(x.Target, precCall)
			p.inherit(&x.NodeInfo, x.Target)
			p.b.WriteString(" " + x.Op + " ")
			p.expr(x.Value, precAssign)
		})
	case *ast.CondExpr:
		p.paren(ctx > precCond, func() {
			p.expr(x.Cond, precCond+1)
			p.inherit(&x.NodeInfo, x.Cond)
			p.b.WriteString(" ? ")
			p.expr(x.Then, precAssign)
			p.b.WriteString(" : ")
			p.expr(x.Else, precAssign)
		})
	case *ast.SeqExpr:
		p.paren(ctx > precSeq, func() {
			for i, sub := range x.Exprs {
				if i > 0 {
					p.b.WriteString(", ")
				}
				p.expr(sub, precAssign)
				if i == 0 {
					p.inherit(&x.NodeInfo, sub)
				}
			}
		})
	case *ast.SpreadExpr:
		p.mark(&x.NodeInfo)
		p.b.WriteString("...")
		p.expr(x.X, precAssign)
	case *ast.AwaitExpr:
		p.paren(ctx > precUnary, func() {
			p.mark(&x.NodeInfo)
			p.b.WriteString("await ")
			p.expr(x.X, precUnary)
		})
	default:
		panic(fmt.Sprintf("printer: unknown expression %T", e))
	}
}

// mergesWithSign reports whether a prefix + or - printed right before x
// would lex together with x's own leading sign (- -a as --a, + ++a as
// +++a), so a space must separate them.
func mergesWithSign(op string, x ast.Expr) bool {
	if op != "-" && op != "+" {
		return false
	}
	switch y := x.(type) {
	case *ast.UnaryExpr:
		return y.Op[0] == op[0]
	case *ast.UpdateExpr:
		return y.Prefix && y.Op[0] == op[0]
	}
	return false
}

// newCalleeNeedsParens reports whether a `new` callee printed bare would
// read back differently. The parser takes a primary expression followed
// only by dotted names as the callee, so a call, a nested new or a
// computed member along that chain needs parentheses.
func newCalleeNeedsParens(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.CallExpr, *ast.NewExpr:
			return true
		case *ast.MemberExpr:
			if x.Computed {
				return true
			}
			if _, isNum := x.Object.(*ast.NumberLit); isNum {
				return false // printed parenthesized
			}
			e = x.Object
		default:
			return false
		}
	}
}

func (p *printer) paren(need bool, body func()) {
	if need {
		p.b.WriteString("(")
	}
	body()
	if need {
		p.b.WriteString(")")
	}
}

func (p *printer) args(args []ast.Expr) {
	p.b.WriteString("(")
	for i, a := range args {
		if i > 0 {
			p.b.WriteString(", ")
		}
		p.expr(a, precAssign)
	}
	p.b.WriteString(")")
}

func formatNumber(v float64) string {
	if v == float64(int64(v)) && v >= -1e15 && v <= 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// quoteJS quotes s as a double-quoted JS string literal.
func quoteJS(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		case 0:
			b.WriteString(`\0`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

func escapeTemplate(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "`", "\\`")
	s = strings.ReplaceAll(s, "${", "\\${")
	return s
}

// startsAmbiguously reports whether the leftmost token of e, printed at
// statement position, would be '{' or 'function' — which the parser would
// misread as a block or a declaration.
func startsAmbiguously(e ast.Expr) bool {
	switch x := leftmost(e).(type) {
	case *ast.ObjectLit:
		return true
	case *ast.FuncLit:
		return !x.Arrow
	}
	return false
}

// leftmost returns the operand whose first token is the first token of e
// as printed. It descends into the left operand of every expression that
// starts with one, even where the printer parenthesizes that operand: a
// caller that adds parentheses on its answer then adds a redundant pair
// at worst.
func leftmost(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.BinaryExpr:
			e = x.Left
		case *ast.LogicalExpr:
			e = x.Left
		case *ast.AssignExpr:
			e = x.Target
		case *ast.CondExpr:
			e = x.Cond
		case *ast.MemberExpr:
			e = x.Object
		case *ast.CallExpr:
			e = x.Callee
		case *ast.SeqExpr:
			if len(x.Exprs) == 0 {
				return e
			}
			e = x.Exprs[0]
		case *ast.UpdateExpr:
			if x.Prefix {
				return e
			}
			e = x.X
		default:
			return e
		}
	}
}

func isIdentKey(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alpha := c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && !(i > 0 && c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}
