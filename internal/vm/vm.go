// Package vm compiles resolved MiniJS ASTs to a compact register bytecode
// executed by the interpreter's dispatch loop (internal/interp). The
// resolver's (depth, slot) coordinates are the register allocation for
// variables: locals stay in the same slot-array environments the
// tree-walker uses (so closures, IterCopy per-iteration bindings and
// mixed VM/tree-walk frames interoperate), while expression temporaries
// live in a per-frame register file.
//
// The compiler is a strict transcription of the tree-walker's evaluation
// order: every AST node that would charge a step at eval/execStmt entry
// contributes a pre-charge (position) fused onto the next emitted
// instruction, and constructs whose semantics are rare or intricate
// (switch, for-in, class declarations, new, spread, compound member
// assignment, typeof/delete) compile to delegation opcodes that call
// straight back into the tree-walker for that one node — parity on those
// paths is by construction, not by reimplementation. A DIF tracker call
// is syntax, not a value: `__t.<method>(...)` naming one of TauMethods
// (TrackerOp) compiles to a fused OpTrackerCall carrying the method's op
// code, which the interpreter dispatches straight to the installed
// tracker whatever the name `__t` is bound to. The tracker is not in the
// program's heap, so no program can rebind, alias or patch it.
package vm

import "turnstile/internal/ast"

// Op is a bytecode opcode.
type Op uint8

// Opcode set. Operand meanings are documented per opcode; A is
// conventionally the destination register.
const (
	OpNop         Op = iota // charge carrier only
	OpConst                 // A=dst, B=const index (literal value)
	OpUndefV                // A=dst
	OpNullV                 // A=dst
	OpMove                  // A=dst, B=src
	OpIdent                 // A=dst, B=const(*ast.Ident); errors when undefined
	OpThis                  // A=dst, B=const(*ast.ThisExpr); undefined when unbound
	OpDefine                // A=src, B=const(*DefineSite)
	OpStoreIdent            // A=src, B=const(*ast.Ident)
	OpIncDec                // A=dst, B=const(*ast.UpdateExpr) with Ident target
	OpJump                  // A=target pc
	OpJumpUnless            // A=cond reg, B=target (taken when !Truthy)
	OpJumpIf                // A=cond reg, B=target (taken when Truthy)
	OpJumpNotNull           // A=reg, B=target (taken when value is not nullish)
	OpAdd                   // A=dst, B=l, C=r, D=const(node) — float fast path
	OpSub                   // ditto
	OpMul                   // ditto
	OpDiv                   // ditto
	OpMod                   // ditto (math.Mod, matching BinaryOp "%")
	OpCmpLt                 // ditto (numeric/string compare via BinaryOp fallback)
	OpCmpGt                 // ditto
	OpCmpLe                 // ditto
	OpCmpGe                 // ditto
	OpStrictEq              // A=dst, B=l, C=r
	OpStrictNeq             // A=dst, B=l, C=r
	OpBinOp                 // A=dst, B=l, C=r, D=const(*ast.BinaryExpr) — generic
	OpNot                   // A=dst, B=src
	OpNeg                   // A=dst, B=src
	OpToNum                 // A=dst, B=src (unary +)
	OpBitNot                // A=dst, B=src
	OpAwait                 // A=dst, B=src
	OpTemplate              // A=dst, B=base, C=count, D=const(*ast.TemplateLit)
	OpArray                 // A=dst, B=base, C=count, D=const(*ast.ArrayLit)
	OpNewObject             // A=dst, B=const(*ast.ObjectLit)
	OpSetProp               // A=obj, B=val, C=const(key string)
	OpClosure               // A=dst, B=const(*FuncProto)
	OpHoist                 // B=const(*FuncProto) — function-declaration hoisting
	OpMemberGet             // A=dst, B=obj, C=const(*ast.MemberExpr) — IC read path
	OpMemberGetC            // A=dst, B=obj, C=index reg, D=const(*ast.MemberExpr)
	OpMemberSet             // A=val, B=obj, C=const(*ast.MemberExpr)
	OpMemberSetC            // A=val, B=obj, C=index reg, D=const(*ast.MemberExpr)
	OpCall                  // A=dst, B=callee, C=base<<16|argc, D=const(*CallSite)
	OpCallMethod            // A=dst, B=recv, C=base<<16|argc, D=const(*CallSite); IC dispatch
	OpCallMethodC           // A=dst, B=recv (index in B+1), C=base<<16|argc, D=const(*CallSite)
	OpTrackerCall           // A=dst, C=base<<16|argc, D=const(*CallSite) — tracker call (TrackerOp)
	OpEvalExpr              // A=dst, B=const(ast.Expr) — delegate to tree-walk eval
	OpExecStmt              // A=const(ast.Stmt), B=break edge, C=continue edge (-1 none)
	OpTry                   // A=const(*TryInfo), B=break edge, C=continue edge
	OpPushScope             // B=scope index — env = newEnvFor(env, scope), pooled in a NoCapture chunk
	OpPopScope              // env = env.parent
	OpPopN                  // A=count — env walks up A parents
	OpIterCopy              // env = env.IterCopy() (per-iteration let/const bindings); a no-op in a NoCapture chunk
	OpRet                   // A=src
	OpRetUndef              //
	OpCtrl                  // A=1 break, A=2 continue — chunk completion
	OpThrow                 // A=src — raise MiniJS exception
)

// Instr is one bytecode instruction. CIdx/CN reference the chunk's
// pre-charge table: positions charged (in order) against the step budget
// before the instruction executes, replicating the tree-walker's
// charge-at-node-entry discipline.
type Instr struct {
	Op         Op
	A, B, C, D int32
	CIdx, CN   int32
}

// CtrlEdge routes a break/continue completion surfacing from a delegated
// statement or try sub-chunk back into the flat bytecode of the enclosing
// chunk: pop PopN environments, then jump to PC.
type CtrlEdge struct {
	PopN int32
	PC   int32
}

// CallSite is the compile-time constant for a call instruction.
type CallSite struct {
	Node *ast.CallExpr
	Mem  *ast.MemberExpr // non-nil for method calls
	Name string          // static (non-computed) method name
	Tau  TauOp           // OpTrackerCall only: the τ method's op code (never 0)
}

// TrackerName is the name through which instrumented code calls the DIF
// tracker (τ): a call TrackerName.<method>(...) is a tracker call.
const TrackerName = "__t"

// TauOp is the compile-time op code of a DIF tracker (τ) method, the
// index of its name in TauMethods. Op 0 names no τ method.
type TauOp uint8

// TauMethods lists the τ methods the interpreter's InstallTracker
// installs, in op-code order.
var TauMethods = [...]string{
	"", "label", "binaryOp", "derive", "check", "invoke", "call", "member",
	"track", "pushScope", "pc", "popScope", "assign", "unwrap", "declassify",
	"endorse",
}

// TauOpOf returns the op code of a τ method name (0 when it names none).
func TauOpOf(name string) TauOp {
	for i := 1; i < len(TauMethods); i++ {
		if TauMethods[i] == name {
			return TauOp(i)
		}
	}
	return 0
}

// TrackerOp reports whether a call is a tracker call, the one rule both
// engines apply: a non-computed `__t.<m>(...)` where m is one of
// TauMethods. It returns m's op code, or 0 for any other call. The rule
// is syntactic: what the name `__t` is bound to, if anything, plays no
// part, so a program can shadow or rebind `__t` but never reach τ
// through it.
func TrackerOp(x *ast.CallExpr) TauOp {
	mem, ok := x.Callee.(*ast.MemberExpr)
	if !ok || mem.Computed {
		return 0
	}
	if id, ok := mem.Object.(*ast.Ident); !ok || id.Name != TrackerName {
		return 0
	}
	return TauOpOf(mem.Property)
}

// DefineSite is the compile-time constant for a variable declaration.
type DefineSite struct {
	Name  string
	Ref   *ast.VarRef
	Const bool
}

// FuncProto is the compile-time constant for closure creation and
// function-declaration hoisting.
type FuncProto struct {
	Name  string
	Ref   *ast.VarRef // hoisting target (function declarations only)
	Decl  *ast.FuncLit
	Chunk *Chunk
}

// TryInfo carries a try statement's sub-chunks. The executor transcribes
// the tree-walker's try/catch/finally composition over their completions.
type TryInfo struct {
	Node                 *ast.TryStmt
	Body, Catch, Finally *Chunk
}

// Chunk is one compiled body: the top level of a program, a function
// body, or a try-statement sub-block.
type Chunk struct {
	Name    string
	Code    []Instr
	Charges []ast.Pos // flat pre-charge positions, referenced by Instr.CIdx/CN
	Consts  []any
	Scopes  []*ast.ScopeInfo
	Edges   []CtrlEdge
	NumRegs int
	// NeedsArguments reports whether any identifier named `arguments`
	// occurs in the function body (including nested literals, which may
	// inherit it through arrows). When false, the call prologue can skip
	// materializing the arguments array: no lookup can ever observe the
	// unbound slot.
	NeedsArguments bool
	// NoCapture reports that executing this chunk can never create a
	// reference to its environment chain that outlives the call: the
	// code contains no closure creation, no hoisted declarations, and no
	// delegated tree-walk regions or try sub-chunks (which could contain
	// either). The interpreter recycles such a chunk's call environment
	// and the block scopes it opens through its env pool, and runs its
	// OpIterCopy as a no-op: no closure can hold the old environment, so
	// a copy of the same bindings cannot be observed. Only function
	// chunks are analysed; the top-level chunk and try sub-chunks keep
	// NoCapture false.
	NoCapture bool
}

// Module is the compiled form of one program: its top-level chunk plus a
// chunk per function literal anywhere in the tree (including literals
// that are created by delegated tree-walk regions — the interpreter
// attaches their chunks at closure-creation time).
type Module struct {
	Top   *Chunk
	Funcs map[*ast.FuncLit]*Chunk
}
