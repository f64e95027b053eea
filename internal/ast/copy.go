package ast

// CopyExpr returns a deep copy of e that shares no node with it: every
// copied node keeps its original's position and gets the ID id(original
// ID). Resolver annotations are not copied, so the copy resolves afresh.
// A nil e copies to nil.
func CopyExpr(e Expr, id func(int) int) Expr { return copier(id).expr(e) }

// CopyStmt is CopyExpr for a statement.
func CopyStmt(s Stmt, id func(int) int) Stmt { return copier(id).stmt(s) }

type copier func(int) int

func (c copier) info(n NodeInfo) NodeInfo { return NodeInfo{Loc: n.Loc, ID: c(n.ID)} }

func (c copier) exprs(in []Expr) []Expr {
	if in == nil {
		return nil
	}
	out := make([]Expr, len(in))
	for i, e := range in {
		out[i] = c.expr(e)
	}
	return out
}

func (c copier) stmts(in []Stmt) []Stmt {
	if in == nil {
		return nil
	}
	out := make([]Stmt, len(in))
	for i, s := range in {
		out[i] = c.stmt(s)
	}
	return out
}

func (c copier) block(b *BlockStmt) *BlockStmt {
	if b == nil {
		return nil
	}
	return &BlockStmt{NodeInfo: c.info(b.NodeInfo), Body: c.stmts(b.Body)}
}

func (c copier) funcLit(fn *FuncLit) *FuncLit {
	if fn == nil {
		return nil
	}
	var params []*Param
	if fn.Params != nil {
		params = make([]*Param, len(fn.Params))
		for i, p := range fn.Params {
			params[i] = &Param{NodeInfo: c.info(p.NodeInfo), Name: p.Name, Rest: p.Rest}
		}
	}
	return &FuncLit{NodeInfo: c.info(fn.NodeInfo), Name: fn.Name, Params: params,
		Body: c.block(fn.Body), Arrow: fn.Arrow, Async: fn.Async, ExprRet: c.expr(fn.ExprRet)}
}

func (c copier) stmt(s Stmt) Stmt {
	if s == nil || isNilNode(s) {
		return nil
	}
	switch x := s.(type) {
	case *VarDecl:
		decls := make([]*Declarator, len(x.Decls))
		for i, d := range x.Decls {
			decls[i] = &Declarator{NodeInfo: c.info(d.NodeInfo), Name: d.Name, Init: c.expr(d.Init)}
		}
		return &VarDecl{NodeInfo: c.info(x.NodeInfo), Kind: x.Kind, Decls: decls}
	case *FuncDecl:
		return &FuncDecl{NodeInfo: c.info(x.NodeInfo), Name: x.Name, Fn: c.funcLit(x.Fn)}
	case *ExprStmt:
		return &ExprStmt{NodeInfo: c.info(x.NodeInfo), X: c.expr(x.X)}
	case *ReturnStmt:
		return &ReturnStmt{NodeInfo: c.info(x.NodeInfo), Value: c.expr(x.Value)}
	case *IfStmt:
		return &IfStmt{NodeInfo: c.info(x.NodeInfo), Cond: c.expr(x.Cond), Then: c.stmt(x.Then), Else: c.stmt(x.Else)}
	case *ForStmt:
		return &ForStmt{NodeInfo: c.info(x.NodeInfo), Init: c.stmt(x.Init), Cond: c.expr(x.Cond),
			Post: c.expr(x.Post), Body: c.stmt(x.Body)}
	case *ForInStmt:
		return &ForInStmt{NodeInfo: c.info(x.NodeInfo), Kind: x.Kind, DeclKind: x.DeclKind, Decl: x.Decl,
			Name: x.Name, Object: c.expr(x.Object), Body: c.stmt(x.Body)}
	case *WhileStmt:
		return &WhileStmt{NodeInfo: c.info(x.NodeInfo), Cond: c.expr(x.Cond), Body: c.stmt(x.Body)}
	case *DoWhileStmt:
		return &DoWhileStmt{NodeInfo: c.info(x.NodeInfo), Body: c.stmt(x.Body), Cond: c.expr(x.Cond)}
	case *BlockStmt:
		return c.block(x)
	case *BreakStmt:
		return &BreakStmt{NodeInfo: c.info(x.NodeInfo)}
	case *ContinueStmt:
		return &ContinueStmt{NodeInfo: c.info(x.NodeInfo)}
	case *ThrowStmt:
		return &ThrowStmt{NodeInfo: c.info(x.NodeInfo), Value: c.expr(x.Value)}
	case *TryStmt:
		return &TryStmt{NodeInfo: c.info(x.NodeInfo), Body: c.block(x.Body), CatchVar: x.CatchVar,
			Catch: c.block(x.Catch), Finally: c.block(x.Finally)}
	case *SwitchStmt:
		cases := make([]*SwitchCase, len(x.Cases))
		for i, cs := range x.Cases {
			cases[i] = &SwitchCase{NodeInfo: c.info(cs.NodeInfo), Test: c.expr(cs.Test), Body: c.stmts(cs.Body)}
		}
		return &SwitchStmt{NodeInfo: c.info(x.NodeInfo), Disc: c.expr(x.Disc), Cases: cases}
	case *ClassDecl:
		methods := make([]*ClassMethod, len(x.Methods))
		for i, m := range x.Methods {
			methods[i] = &ClassMethod{NodeInfo: c.info(m.NodeInfo), Name: m.Name, Static: m.Static, Fn: c.funcLit(m.Fn)}
		}
		return &ClassDecl{NodeInfo: c.info(x.NodeInfo), Name: x.Name, SuperClass: c.expr(x.SuperClass), Methods: methods}
	case *EmptyStmt:
		return &EmptyStmt{NodeInfo: c.info(x.NodeInfo)}
	}
	panic("ast: CopyStmt of unknown statement")
}

func (c copier) expr(e Expr) Expr {
	if e == nil || isNilNode(e) {
		return nil
	}
	switch x := e.(type) {
	case *Ident:
		return &Ident{NodeInfo: c.info(x.NodeInfo), Name: x.Name}
	case *NumberLit:
		return &NumberLit{NodeInfo: c.info(x.NodeInfo), Value: x.Value}
	case *StringLit:
		return &StringLit{NodeInfo: c.info(x.NodeInfo), Value: x.Value}
	case *TemplateLit:
		return &TemplateLit{NodeInfo: c.info(x.NodeInfo), Quasis: x.Quasis, Exprs: c.exprs(x.Exprs)}
	case *BoolLit:
		return &BoolLit{NodeInfo: c.info(x.NodeInfo), Value: x.Value}
	case *NullLit:
		return &NullLit{NodeInfo: c.info(x.NodeInfo)}
	case *UndefinedLit:
		return &UndefinedLit{NodeInfo: c.info(x.NodeInfo)}
	case *ThisExpr:
		return &ThisExpr{NodeInfo: c.info(x.NodeInfo)}
	case *ArrayLit:
		return &ArrayLit{NodeInfo: c.info(x.NodeInfo), Elems: c.exprs(x.Elems)}
	case *ObjectLit:
		props := make([]*Property, len(x.Props))
		for i, p := range x.Props {
			props[i] = &Property{NodeInfo: c.info(p.NodeInfo), Key: p.Key, KeyExpr: c.expr(p.KeyExpr),
				Value: c.expr(p.Value), Computed: p.Computed, Spread: p.Spread}
		}
		return &ObjectLit{NodeInfo: c.info(x.NodeInfo), Props: props}
	case *FuncLit:
		return c.funcLit(x)
	case *CallExpr:
		return &CallExpr{NodeInfo: c.info(x.NodeInfo), Callee: c.expr(x.Callee), Args: c.exprs(x.Args)}
	case *NewExpr:
		return &NewExpr{NodeInfo: c.info(x.NodeInfo), Callee: c.expr(x.Callee), Args: c.exprs(x.Args)}
	case *MemberExpr:
		return &MemberExpr{NodeInfo: c.info(x.NodeInfo), Object: c.expr(x.Object), Property: x.Property,
			Index: c.expr(x.Index), Computed: x.Computed}
	case *BinaryExpr:
		return &BinaryExpr{NodeInfo: c.info(x.NodeInfo), Op: x.Op, Left: c.expr(x.Left), Right: c.expr(x.Right)}
	case *LogicalExpr:
		return &LogicalExpr{NodeInfo: c.info(x.NodeInfo), Op: x.Op, Left: c.expr(x.Left), Right: c.expr(x.Right)}
	case *UnaryExpr:
		return &UnaryExpr{NodeInfo: c.info(x.NodeInfo), Op: x.Op, X: c.expr(x.X)}
	case *UpdateExpr:
		return &UpdateExpr{NodeInfo: c.info(x.NodeInfo), Op: x.Op, Prefix: x.Prefix, X: c.expr(x.X)}
	case *AssignExpr:
		return &AssignExpr{NodeInfo: c.info(x.NodeInfo), Op: x.Op, Target: c.expr(x.Target), Value: c.expr(x.Value)}
	case *CondExpr:
		return &CondExpr{NodeInfo: c.info(x.NodeInfo), Cond: c.expr(x.Cond), Then: c.expr(x.Then), Else: c.expr(x.Else)}
	case *SeqExpr:
		return &SeqExpr{NodeInfo: c.info(x.NodeInfo), Exprs: c.exprs(x.Exprs)}
	case *SpreadExpr:
		return &SpreadExpr{NodeInfo: c.info(x.NodeInfo), X: c.expr(x.X)}
	case *AwaitExpr:
		return &AwaitExpr{NodeInfo: c.info(x.NodeInfo), X: c.expr(x.X)}
	}
	panic("ast: CopyExpr of unknown expression")
}
