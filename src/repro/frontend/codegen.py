"""AST -> IR lowering.

Classic clang -O0 style codegen: every local (and every parameter)
lives in an alloca and is loaded/stored at each use; the standard pass
pipeline (mem2reg first) then rebuilds SSA.  Loops are emitted in
rotated (bottom-tested) form with an entry guard, which is the shape
`repro.passes.unroll` requires; ``#pragma unroll`` annotations travel
on the latch branch instruction.

Semantic deviations from ISO C (documented, deliberate):

* ``&&``/``||`` evaluate both sides (no short circuit) and combine with
  bitwise ops on ``i1`` — the datapath-friendly lowering HLS tools use
  for side-effect-free conditions.
* all arithmetic is two's-complement wrapping (no UB on overflow).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.frontend import c_ast as ast
from repro.frontend.parser import parse_c
from repro.ir.builder import IRBuilder
from repro.ir.instructions import INTRINSICS
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    Type,
    DOUBLE,
    FLOAT,
    I1,
    I8,
    I16,
    I32,
    I64,
    VOID,
)
from repro.ir.values import Constant, Value
from repro.ir.verifier import verify_module


class CodegenError(ValueError):
    pass


_BASE_IR_TYPES = {
    "void": VOID,
    "char": I8,
    "short": I16,
    "int": I32,
    "long": I64,
    "float": FLOAT,
    "double": DOUBLE,
}

# Math builtins: canonical intrinsic name per C spelling.
_MATH_BUILTINS = {
    "sqrt": "sqrt", "sqrtf": "sqrt",
    "fabs": "fabs", "fabsf": "fabs", "abs": "fabs",
    "exp": "exp", "expf": "exp",
    "log": "log", "logf": "log",
    "sin": "sin", "sinf": "sin",
    "cos": "cos", "cosf": "cos",
    "pow": "pow", "powf": "pow",
    "fmin": "fmin", "fminf": "fmin",
    "fmax": "fmax", "fmaxf": "fmax",
}


def ir_type_of(ctype: ast.CType) -> Type:
    """Lower a CType (base + pointers + array dims) to an IR type."""
    base = _BASE_IR_TYPES.get(ctype.base)
    if base is None:
        raise CodegenError(f"unknown base type '{ctype.base}'")
    type_: Type = base
    for dim in reversed(ctype.array_dims):
        type_ = ArrayType(type_, dim)
    for __ in range(ctype.pointers):
        type_ = PointerType(type_)
    return type_


@dataclass
class TV:
    """A typed rvalue: IR value plus C-level signedness."""

    value: Value
    unsigned: bool = False

    @property
    def type(self) -> Type:
        return self.value.type


@dataclass
class _Symbol:
    alloca: Value  # pointer to the storage
    unsigned: bool


@dataclass
class _LoopContext:
    continue_target: BasicBlock
    break_target: BasicBlock


class _FunctionCodegen:
    def __init__(self, module: Module, fdef: ast.FunctionDef, signatures: dict) -> None:
        self.module = module
        self.fdef = fdef
        self.signatures = signatures
        self.func: Optional[Function] = None
        self.builder = IRBuilder()
        self.scopes: list[dict[str, _Symbol]] = []
        self.loops: list[_LoopContext] = []
        self.terminated = False

    # ------------------------------------------------------------------
    def run(self) -> Function:
        return_type = ir_type_of(self.fdef.return_type)
        arg_specs = [(ir_type_of(p.type), p.name) for p in self.fdef.params]
        func = Function(self.fdef.name, return_type, arg_specs)
        self.module.add_function(func)
        self.func = func
        entry = func.add_block("entry")
        self.builder.position_at_end(entry)
        self.scopes.append({})
        # Spill parameters into allocas (mem2reg will promote them back).
        for param, arg in zip(self.fdef.params, func.args):
            slot = self.builder.alloca(arg.type, name=f"{param.name}.addr")
            self.builder.store(arg, slot)
            self.scopes[-1][param.name] = _Symbol(slot, param.type.unsigned)
        self.gen_stmt(self.fdef.body)
        if not self.terminated:
            if return_type.is_void:
                self.builder.ret()
            else:
                self.builder.ret(Constant(return_type, 0))
        return func

    # -- scope helpers ----------------------------------------------------
    def lookup(self, name: str, line: int) -> _Symbol:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise CodegenError(f"line {line}: use of undeclared identifier '{name}'")

    def new_block(self, name: str) -> BasicBlock:
        return self.func.add_block(self.func.unique_name(name))

    def _start_block(self, block: BasicBlock) -> None:
        self.builder.position_at_end(block)
        self.terminated = False

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def gen_stmt(self, stmt: ast.Stmt) -> None:
        if self.terminated:
            return  # unreachable code after return/break/continue
        if isinstance(stmt, ast.Compound):
            self.scopes.append({})
            for child in stmt.body:
                self.gen_stmt(child)
            self.scopes.pop()
        elif isinstance(stmt, ast.VarDecl):
            self.gen_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self.gen_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self.gen_if(stmt)
        elif isinstance(stmt, ast.For):
            self.gen_for(stmt)
        elif isinstance(stmt, ast.While):
            self.gen_for(
                ast.For(line=stmt.line, init=None, cond=stmt.cond, step=None,
                        body=stmt.body, unroll=stmt.unroll)
            )
        elif isinstance(stmt, ast.DoWhile):
            self.gen_do_while(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                if self.func.return_type.is_void:
                    raise CodegenError(f"line {stmt.line}: return with value in void function")
                value = self.convert(self.gen_expr(stmt.value), self.func.return_type)
                self.builder.ret(value.value)
            else:
                self.builder.ret()
            self.terminated = True
        elif isinstance(stmt, ast.Break):
            if not self.loops:
                raise CodegenError(f"line {stmt.line}: break outside loop")
            self.builder.br(self.loops[-1].break_target)
            self.terminated = True
        elif isinstance(stmt, ast.Continue):
            if not self.loops:
                raise CodegenError(f"line {stmt.line}: continue outside loop")
            self.builder.br(self.loops[-1].continue_target)
            self.terminated = True
        else:
            raise CodegenError(f"unsupported statement {type(stmt).__name__}")

    def gen_decl(self, decl: ast.VarDecl) -> None:
        var_type = ir_type_of(decl.type)
        # Unique SSA name even when sibling scopes reuse variable names.
        slot = self.builder.alloca(var_type, name=self.func.unique_name(f"{decl.name}."))
        self.scopes[-1][decl.name] = _Symbol(slot, decl.type.unsigned)
        if decl.init is not None:
            if not var_type.is_scalar:
                raise CodegenError(f"line {decl.line}: array initializers not supported")
            value = self.gen_expr(decl.init)
            value = self.convert(value, var_type)
            self.builder.store(value.value, slot)

    def gen_if(self, stmt: ast.If) -> None:
        cond = self.gen_condition(stmt.cond)
        then_block = self.new_block("if.then")
        merge_block = self.new_block("if.end")
        else_block = self.new_block("if.else") if stmt.otherwise else merge_block
        self.builder.cbr(cond, then_block, else_block)

        self._start_block(then_block)
        self.gen_stmt(stmt.then)
        if not self.terminated:
            self.builder.br(merge_block)
        if stmt.otherwise is not None:
            self._start_block(else_block)
            self.gen_stmt(stmt.otherwise)
            if not self.terminated:
                self.builder.br(merge_block)
        self._start_block(merge_block)

    def gen_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self.scopes.append({})
            self.gen_stmt(stmt.init)

        header = self.new_block("loop.body")
        latch = self.new_block("loop.latch")
        exit_block = self.new_block("loop.end")

        # Entry guard (skipped for condition-less loops).
        if stmt.cond is not None:
            guard = self.gen_condition(stmt.cond)
            self.builder.cbr(guard, header, exit_block)
        else:
            self.builder.br(header)

        self._start_block(header)
        self.loops.append(_LoopContext(continue_target=latch, break_target=exit_block))
        self.gen_stmt(stmt.body)
        self.loops.pop()
        if not self.terminated:
            self.builder.br(latch)

        self._start_block(latch)
        if stmt.step is not None:
            self.gen_expr(stmt.step)
        if stmt.cond is not None:
            cond = self.gen_condition(stmt.cond)
            branch = self.builder.cbr(cond, header, exit_block)
        else:
            branch = self.builder.br(header)
        if stmt.unroll is not None:
            branch.unroll_factor = stmt.unroll

        self._start_block(exit_block)
        if stmt.init is not None:
            self.scopes.pop()

    def gen_do_while(self, stmt: ast.DoWhile) -> None:
        header = self.new_block("do.body")
        latch = self.new_block("do.latch")
        exit_block = self.new_block("do.end")
        self.builder.br(header)
        self._start_block(header)
        self.loops.append(_LoopContext(continue_target=latch, break_target=exit_block))
        self.gen_stmt(stmt.body)
        self.loops.pop()
        if not self.terminated:
            self.builder.br(latch)
        self._start_block(latch)
        cond = self.gen_condition(stmt.cond)
        branch = self.builder.cbr(cond, header, exit_block)
        if stmt.unroll is not None:
            branch.unroll_factor = stmt.unroll
        self._start_block(exit_block)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def gen_expr(self, expr: ast.Expr) -> TV:
        if isinstance(expr, ast.IntLit):
            type_ = I32 if -(2**31) <= expr.value < 2**31 else I64
            return TV(Constant(type_, expr.value))
        if isinstance(expr, ast.FloatLit):
            return TV(Constant(FLOAT if expr.is_single else DOUBLE, expr.value))
        if isinstance(expr, ast.Ident):
            return self.gen_load_ident(expr)
        if isinstance(expr, ast.BinOp):
            return self.gen_binop(expr)
        if isinstance(expr, ast.UnOp):
            return self.gen_unop(expr)
        if isinstance(expr, ast.Assign):
            return self.gen_assign(expr)
        if isinstance(expr, ast.IncDec):
            return self.gen_incdec(expr)
        if isinstance(expr, ast.Conditional):
            cond = self.gen_condition(expr.cond)
            lhs = self.gen_expr(expr.if_true)
            rhs = self.gen_expr(expr.if_false)
            common = self.common_type(lhs, rhs)
            lhs, rhs = self.convert(lhs, common), self.convert(rhs, common)
            return TV(self.builder.select(cond, lhs.value, rhs.value),
                      lhs.unsigned or rhs.unsigned)
        if isinstance(expr, ast.CallExpr):
            return self.gen_call(expr)
        if isinstance(expr, ast.IndexExpr):
            addr, unsigned = self.gen_address(expr)
            pointee = addr.type.pointee
            if pointee.is_array:
                # Array rvalue decays to a pointer to its first element.
                return TV(self.builder.gep(addr, [0, 0]), unsigned)
            return TV(self.builder.load(addr), unsigned)
        if isinstance(expr, ast.CastExpr):
            value = self.gen_expr(expr.operand)
            target = ir_type_of(expr.to_type)
            converted = self.convert(value, target)
            return TV(converted.value, expr.to_type.unsigned)
        raise CodegenError(f"unsupported expression {type(expr).__name__}")

    def gen_load_ident(self, expr: ast.Ident) -> TV:
        symbol = self.lookup(expr.name, expr.line)
        pointee = symbol.alloca.type.pointee
        if pointee.is_array:
            # Arrays decay to element pointers in rvalue position.
            return TV(self.builder.gep(symbol.alloca, [0, 0]), symbol.unsigned)
        return TV(self.builder.load(symbol.alloca), symbol.unsigned)

    # -- addresses (lvalues) -----------------------------------------------
    def gen_address(self, expr: ast.Expr) -> tuple[Value, bool]:
        if isinstance(expr, ast.Ident):
            symbol = self.lookup(expr.name, expr.line)
            return symbol.alloca, symbol.unsigned
        if isinstance(expr, ast.IndexExpr):
            return self.gen_index_address(expr)
        if isinstance(expr, ast.UnOp) and expr.op == "*":
            pointer = self.gen_expr(expr.operand)
            if not pointer.type.is_pointer:
                raise CodegenError(f"line {expr.line}: dereferencing non-pointer")
            return pointer.value, pointer.unsigned
        raise CodegenError(f"line {expr.line}: expression is not assignable")

    def gen_index_address(self, expr: ast.IndexExpr) -> tuple[Value, bool]:
        index = self.gen_expr(expr.index)
        index = self.convert(index, I64)
        base = expr.base
        # Identifier base: choose array-indexing vs pointer-indexing GEP.
        if isinstance(base, ast.Ident):
            symbol = self.lookup(base.name, base.line)
            pointee = symbol.alloca.type.pointee
            if pointee.is_array:
                return (
                    self.builder.gep(symbol.alloca, [0, index.value]),
                    symbol.unsigned,
                )
            pointer = self.builder.load(symbol.alloca)
            return self.builder.gep(pointer, [index.value]), symbol.unsigned
        if isinstance(base, ast.IndexExpr):
            addr, unsigned = self.gen_index_address(base)
            pointee = addr.type.pointee
            if pointee.is_array:
                return self.builder.gep(addr, [0, index.value]), unsigned
            pointer = self.builder.load(addr)
            return self.builder.gep(pointer, [index.value]), unsigned
        # General base expression (e.g. (p + 4)[i]).
        pointer = self.gen_expr(base)
        if not pointer.type.is_pointer:
            raise CodegenError(f"line {expr.line}: indexing a non-pointer")
        return self.builder.gep(pointer.value, [index.value]), pointer.unsigned

    # -- operators -------------------------------------------------------------
    def gen_binop(self, expr: ast.BinOp) -> TV:
        op = expr.op
        if op in ("&&", "||"):
            lhs = self.to_bool(self.gen_expr(expr.lhs))
            rhs = self.to_bool(self.gen_expr(expr.rhs))
            opcode = "and" if op == "&&" else "or"
            return TV(self.builder.binop(opcode, lhs, rhs))
        lhs = self.gen_expr(expr.lhs)
        rhs = self.gen_expr(expr.rhs)
        # Pointer arithmetic: p + i / p - i.
        if lhs.type.is_pointer and op in ("+", "-") and rhs.type.is_int:
            index = self.convert(rhs, I64)
            offset = index.value
            if op == "-":
                offset = self.builder.sub(Constant(I64, 0), index.value)
            return TV(self.builder.gep(lhs.value, [offset]), lhs.unsigned)
        if op in ("==", "!=", "<", ">", "<=", ">="):
            return self.gen_comparison(op, lhs, rhs)
        common = self.common_type(lhs, rhs)
        lhs, rhs = self.convert(lhs, common), self.convert(rhs, common)
        unsigned = lhs.unsigned or rhs.unsigned
        opcode = self._arith_opcode(op, common, unsigned, expr.line)
        return TV(self.builder.binop(opcode, lhs.value, rhs.value), unsigned)

    @staticmethod
    def _arith_opcode(op: str, type_: Type, unsigned: bool, line: int) -> str:
        if type_.is_float:
            table = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv", "%": "frem"}
        else:
            table = {
                "+": "add", "-": "sub", "*": "mul",
                "/": "udiv" if unsigned else "sdiv",
                "%": "urem" if unsigned else "srem",
                "&": "and", "|": "or", "^": "xor",
                "<<": "shl", ">>": "lshr" if unsigned else "ashr",
            }
        if op not in table:
            raise CodegenError(f"line {line}: operator '{op}' not valid for {type_}")
        return table[op]

    def gen_comparison(self, op: str, lhs: TV, rhs: TV) -> TV:
        common = self.common_type(lhs, rhs)
        lhs, rhs = self.convert(lhs, common), self.convert(rhs, common)
        if common.is_float:
            preds = {"==": "oeq", "!=": "une", "<": "olt", ">": "ogt", "<=": "ole", ">=": "oge"}
            return TV(self.builder.fcmp(preds[op], lhs.value, rhs.value))
        unsigned = lhs.unsigned or rhs.unsigned or common.is_pointer
        if unsigned:
            preds = {"==": "eq", "!=": "ne", "<": "ult", ">": "ugt", "<=": "ule", ">=": "uge"}
        else:
            preds = {"==": "eq", "!=": "ne", "<": "slt", ">": "sgt", "<=": "sle", ">=": "sge"}
        return TV(self.builder.icmp(preds[op], lhs.value, rhs.value))

    def gen_unop(self, expr: ast.UnOp) -> TV:
        if expr.op == "*":
            addr, unsigned = self.gen_address(expr)
            return TV(self.builder.load(addr), unsigned)
        if expr.op == "&":
            addr, unsigned = self.gen_address(expr.operand)
            return TV(addr, unsigned)
        operand = self.gen_expr(expr.operand)
        if expr.op == "-":
            if operand.type.is_float:
                return TV(self.builder.fsub(Constant(operand.type, 0.0), operand.value))
            return TV(self.builder.sub(Constant(operand.type, 0), operand.value),
                      operand.unsigned)
        if expr.op == "!":
            bool_val = self.to_bool(operand)
            return TV(self.builder.xor(bool_val, Constant(I1, 1)))
        if expr.op == "~":
            return TV(self.builder.xor(operand.value, Constant(operand.type, -1)),
                      operand.unsigned)
        raise CodegenError(f"line {expr.line}: unsupported unary '{expr.op}'")

    def gen_assign(self, expr: ast.Assign) -> TV:
        addr, unsigned = self.gen_address(expr.target)
        target_type = addr.type.pointee
        value = self.gen_expr(expr.value)
        if expr.op != "=":
            current = TV(self.builder.load(addr), unsigned)
            binop = ast.BinOp(line=expr.line, op=expr.op[:-1], lhs=None, rhs=None)
            common = self.common_type(current, value)
            lhs_c = self.convert(current, common)
            rhs_c = self.convert(value, common)
            if binop.op in ("==", "!="):  # impossible, defensive
                raise CodegenError("bad compound assignment")
            opcode = self._arith_opcode(binop.op, common, unsigned or value.unsigned, expr.line)
            value = TV(self.builder.binop(opcode, lhs_c.value, rhs_c.value), unsigned)
        value = self.convert(value, target_type)
        self.builder.store(value.value, addr)
        return TV(value.value, unsigned)

    def gen_incdec(self, expr: ast.IncDec) -> TV:
        addr, unsigned = self.gen_address(expr.target)
        target_type = addr.type.pointee
        old = self.builder.load(addr)
        one = Constant(target_type, 1)
        if target_type.is_float:
            opcode = "fadd" if expr.op == "++" else "fsub"
        else:
            opcode = "add" if expr.op == "++" else "sub"
        new = self.builder.binop(opcode, old, one)
        self.builder.store(new, addr)
        return TV(new if expr.prefix else old, unsigned)

    def gen_call(self, expr: ast.CallExpr) -> TV:
        args = [self.gen_expr(a) for a in expr.args]
        if expr.callee in _MATH_BUILTINS:
            intrinsic = _MATH_BUILTINS[expr.callee]
            arg_type = FLOAT if expr.callee.endswith("f") else DOUBLE
            converted = [self.convert(a, arg_type).value for a in args]
            return TV(self.builder.call(intrinsic, arg_type, converted))
        if expr.callee in ("min", "max"):
            # Integer min/max lowered to compare+select (a MUX in hardware).
            lhs, rhs = args
            common = self.common_type(lhs, rhs)
            lhs, rhs = self.convert(lhs, common), self.convert(rhs, common)
            op = "<" if expr.callee == "min" else ">"
            cond = self.gen_comparison(op, lhs, rhs)
            return TV(self.builder.select(cond.value, lhs.value, rhs.value),
                      lhs.unsigned or rhs.unsigned)
        if expr.callee not in self.signatures:
            raise CodegenError(f"line {expr.line}: call to unknown function '{expr.callee}'")
        return_ct, param_types = self.signatures[expr.callee]
        if len(param_types) != len(args):
            raise CodegenError(
                f"line {expr.line}: '{expr.callee}' expects {len(param_types)} args"
            )
        converted = [self.convert(a, t).value for a, t in zip(args, param_types)]
        return TV(self.builder.call(expr.callee, return_ct, converted))

    # -- conversions -------------------------------------------------------------
    def to_bool(self, value: TV) -> Value:
        if value.type == I1:
            return value.value
        if value.type.is_float:
            return self.builder.fcmp("une", value.value, Constant(value.type, 0.0))
        if value.type.is_pointer:
            return self.builder.icmp("ne", value.value, Constant(value.type, 0))
        return self.builder.icmp("ne", value.value, Constant(value.type, 0))

    def gen_condition(self, expr: ast.Expr) -> Value:
        return self.to_bool(self.gen_expr(expr))

    def common_type(self, lhs: TV, rhs: TV) -> Type:
        a, b = lhs.type, rhs.type
        if a == b:
            return a
        if a.is_pointer:
            return a
        if b.is_pointer:
            return b
        if a.is_float or b.is_float:
            if a == DOUBLE or b == DOUBLE:
                return DOUBLE
            return FLOAT
        # Integer promotion: at least i32, wider width wins.
        width = max(32, a.bit_width(), b.bit_width())
        return IntType(width)

    def convert(self, value: TV, target: Type) -> TV:
        source = value.type
        if source == target:
            return value
        v = value.value
        if source.is_int and target.is_int:
            if target.bit_width() > source.bit_width():
                opcode = "zext" if (value.unsigned or source == I1) else "sext"
                return TV(self.builder.cast(opcode, v, target), value.unsigned)
            return TV(self.builder.trunc(v, target), value.unsigned)
        if source.is_int and target.is_float:
            if isinstance(v, Constant):
                return TV(Constant(target, float(v.signed_value())), False)
            opcode = "uitofp" if value.unsigned or source == I1 else "sitofp"
            return TV(self.builder.cast(opcode, v, target))
        if source.is_float and target.is_int:
            opcode = "fptoui" if value.unsigned else "fptosi"
            return TV(self.builder.cast(opcode, v, target), value.unsigned)
        if source.is_float and target.is_float:
            if isinstance(v, Constant):
                return TV(Constant(target, v.value))
            if target.bit_width() > source.bit_width():
                return TV(self.builder.fpext(v, target))
            return TV(self.builder.fptrunc(v, target))
        if source.is_pointer and target.is_pointer:
            return TV(self.builder.bitcast(v, target), value.unsigned)
        raise CodegenError(f"cannot convert {source} to {target}")


def lower_to_ir(unit: ast.TranslationUnit, module_name: str = "module") -> Module:
    """Lower a parsed translation unit to (unoptimized) IR."""
    module = Module(module_name)
    signatures = {
        f.name: (ir_type_of(f.return_type), [ir_type_of(p.type) for p in f.params])
        for f in unit.functions
    }
    for fdef in unit.functions:
        _FunctionCodegen(module, fdef, signatures).run()
    verify_module(module)
    return module


def compile_c(
    source: str,
    module_name: str = "module",
    optimize: bool = True,
    unroll_factor: int = 1,
    opt_level: int = 1,
    passes=None,
) -> Module:
    """Compile mini-C source to optimized IR (the full "clang" flow).

    ``opt_level=2`` additionally runs LICM and CSE (see
    `repro.passes.PipelineSpec.standard`).  An explicit ``passes`` spec
    (a string like ``"mem2reg,unroll:4,constfold,dce"`` or a
    `PipelineSpec`) overrides the ``optimize``/``opt_level``/
    ``unroll_factor`` knobs entirely.

    This is the low-level, uncached compile; `repro.build.build_module`
    is the staged, artifact-cached entry point consumers should prefer.
    """
    from repro.passes.pipeline import resolve_spec

    module = lower_to_ir(parse_c(source), module_name)
    spec = resolve_spec(passes, optimize=optimize, opt_level=opt_level,
                        unroll_factor=unroll_factor)
    if spec:
        spec.to_pass_manager(module=module).run(module)
        verify_module(module)
    return module
