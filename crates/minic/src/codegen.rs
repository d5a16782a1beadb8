//! MiniC code generation: typed AST → `watz_wasm` module.

use std::collections::HashMap;

use watz_wasm::builder::ModuleBuilder;
use watz_wasm::instr::{Instr, MemArg};
use watz_wasm::types::{BlockType, ValType};

use crate::ast::{BinOp, Expr, ExprKind, Function, LValue, Program, Stmt, Ty, UnOp};
use crate::Options;

/// Compilation failure with source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CompileError {}

type CResult<T> = Result<T, CompileError>;

fn err<T>(line: u32, message: impl Into<String>) -> CResult<T> {
    Err(CompileError {
        line,
        message: message.into(),
    })
}

fn wasm_ty(ty: &Ty) -> ValType {
    match ty {
        Ty::Int | Ty::Ptr(_) => ValType::I32,
        Ty::Long => ValType::I64,
        Ty::Float => ValType::F32,
        Ty::Double => ValType::F64,
        Ty::Void => unreachable!("void has no value type"),
    }
}

/// Numeric promotion: the common type of a binary operation.
fn promote(a: &Ty, b: &Ty) -> Ty {
    if *a == Ty::Double || *b == Ty::Double {
        Ty::Double
    } else if *a == Ty::Float || *b == Ty::Float {
        Ty::Float
    } else if *a == Ty::Long || *b == Ty::Long {
        Ty::Long
    } else {
        Ty::Int
    }
}

#[derive(Debug, Clone)]
struct FuncSig {
    index: u32,
    params: Vec<Ty>,
    ret: Ty,
}

#[derive(Debug, Clone)]
struct GlobalInfo {
    index: u32,
    ty: Ty,
}

struct LoopCtx {
    break_label: u32,
    continue_label: u32,
}

/// Data segment base: low addresses (0..16) are kept unmapped-by-convention
/// so null-pointer bugs in guests surface as garbage reads, not silent
/// aliasing of real data.
const DATA_BASE: u32 = 16;

/// Compiles a parsed program.
///
/// # Errors
///
/// Returns the first semantic error (unknown identifier, type mismatch,
/// bad lvalue, ...).
#[allow(clippy::too_many_lines)]
pub fn compile_program(program: &Program, options: &Options) -> CResult<Vec<u8>> {
    let mut builder = ModuleBuilder::new();

    // ---- Layout string literals into the data segment. -------------------
    let mut strings: HashMap<String, u32> = HashMap::new();
    let mut data: Vec<u8> = Vec::new();
    collect_strings(program, &mut |s: &str| {
        if !strings.contains_key(s) {
            let addr = DATA_BASE + data.len() as u32;
            data.extend_from_slice(s.as_bytes());
            data.push(0);
            // Keep 8-byte alignment for anything that follows.
            while !data.len().is_multiple_of(8) {
                data.push(0);
            }
            strings.insert(s.to_string(), addr);
        }
    });
    let data_end = DATA_BASE + data.len() as u32;
    let heap_base = (data_end + 7) & !7;

    // ---- Globals. ---------------------------------------------------------
    let mut globals: HashMap<String, GlobalInfo> = HashMap::new();
    for g in &program.globals {
        if globals.contains_key(&g.name) {
            return err(g.line, format!("duplicate global '{}'", g.name));
        }
        let init = match &g.init {
            None => zero_const(&g.ty),
            Some(e) => const_init(e, &g.ty)?,
        };
        let index = builder.add_global(wasm_ty(&g.ty), true, init);
        globals.insert(
            g.name.clone(),
            GlobalInfo {
                index,
                ty: g.ty.clone(),
            },
        );
    }
    // The bump-allocator heap pointer.
    let heap_global = builder.add_global(ValType::I32, true, Instr::I32Const(heap_base as i32));

    // ---- Function signatures (externs first: imports precede bodies). ----
    let mut sigs: HashMap<String, FuncSig> = HashMap::new();
    let externs: Vec<&Function> = program
        .functions
        .iter()
        .filter(|f| f.body.is_none())
        .collect();
    let defined: Vec<&Function> = program
        .functions
        .iter()
        .filter(|f| f.body.is_some())
        .collect();

    for f in &externs {
        if sigs.contains_key(&f.name) {
            return err(f.line, format!("duplicate function '{}'", f.name));
        }
        let ty_idx = builder.add_type(
            &f.params.iter().map(|p| wasm_ty(&p.ty)).collect::<Vec<_>>(),
            &ret_tys(&f.ret),
        );
        let index = builder.import_func("env", &f.name, ty_idx);
        sigs.insert(
            f.name.clone(),
            FuncSig {
                index,
                params: f.params.iter().map(|p| p.ty.clone()).collect(),
                ret: f.ret.clone(),
            },
        );
    }

    // Reserve indices for defined functions (imports + position).
    let first_defined_idx = externs.len() as u32;
    for (i, f) in defined.iter().enumerate() {
        if sigs.contains_key(&f.name) {
            return err(f.line, format!("duplicate function '{}'", f.name));
        }
        sigs.insert(
            f.name.clone(),
            FuncSig {
                index: first_defined_idx + i as u32,
                params: f.params.iter().map(|p| p.ty.clone()).collect(),
                ret: f.ret.clone(),
            },
        );
    }
    // The compiler-provided allocator, appended after user functions.
    let has_user_alloc = sigs.contains_key("alloc");
    let alloc_index = first_defined_idx + defined.len() as u32;
    if !has_user_alloc {
        sigs.insert(
            "alloc".to_string(),
            FuncSig {
                index: alloc_index,
                params: vec![Ty::Int],
                ret: Ty::Ptr(Box::new(Ty::Int)),
            },
        );
    }

    // ---- Compile bodies. --------------------------------------------------
    for f in &defined {
        let mut ctx = FuncCtx::new(&sigs, &globals, &strings, f);
        let body = f.body.as_ref().expect("defined function");
        ctx.stmts(body)?;
        // Default return value so fall-through is always valid.
        if f.ret != Ty::Void {
            ctx.code.push(zero_const(&f.ret));
        }
        ctx.code.push(Instr::End);
        let ty_idx = builder.add_type(
            &f.params.iter().map(|p| wasm_ty(&p.ty)).collect::<Vec<_>>(),
            &ret_tys(&f.ret),
        );
        let extra_locals: Vec<ValType> = ctx.local_types[f.params.len()..].to_vec();
        let idx = builder.add_func(ty_idx, &extra_locals, ctx.code);
        debug_assert_eq!(idx, sigs[&f.name].index);
        builder.export_func(&f.name, idx);
    }

    if !has_user_alloc {
        let ty_idx = builder.add_type(&[ValType::I32], &[ValType::I32]);
        let idx = builder.add_func(
            ty_idx,
            &[ValType::I32, ValType::I32], // p, needed_pages
            build_alloc_body(heap_global),
        );
        debug_assert_eq!(idx, alloc_index);
        builder.export_func("alloc", idx);
    }

    // ---- Memory + data. ---------------------------------------------------
    // The page that holds the heap base, and every page of data below it.
    let min_pages = options
        .min_pages
        .max((heap_base / watz_wasm::PAGE_SIZE as u32) + 1);
    builder.add_memory(min_pages, options.max_pages);
    if !data.is_empty() {
        builder.add_data(DATA_BASE, &data);
    }
    builder.export_memory("memory");

    Ok(builder.build())
}

fn ret_tys(ret: &Ty) -> Vec<ValType> {
    if *ret == Ty::Void {
        vec![]
    } else {
        vec![wasm_ty(ret)]
    }
}

fn zero_const(ty: &Ty) -> Instr {
    match ty {
        Ty::Int | Ty::Ptr(_) => Instr::I32Const(0),
        Ty::Long => Instr::I64Const(0),
        Ty::Float => Instr::F32Const(0.0),
        Ty::Double => Instr::F64Const(0.0),
        Ty::Void => unreachable!(),
    }
}

/// Constant-folds a global initializer (literals, optionally negated).
fn const_init(e: &Expr, ty: &Ty) -> CResult<Instr> {
    fn eval(e: &Expr) -> Option<f64> {
        match &e.kind {
            ExprKind::IntLit(v) => Some(*v as f64),
            ExprKind::FloatLit(v) => Some(*v),
            ExprKind::Unary(UnOp::Neg, inner) => eval(inner).map(|v| -v),
            _ => None,
        }
    }
    let Some(v) = eval(e) else {
        return err(e.line, "global initializer must be a constant literal");
    };
    Ok(match ty {
        Ty::Int | Ty::Ptr(_) => Instr::I32Const(v as i32),
        Ty::Long => Instr::I64Const(v as i64),
        Ty::Float => Instr::F32Const(v as f32),
        Ty::Double => Instr::F64Const(v),
        Ty::Void => unreachable!(),
    })
}

/// The compiler-generated `alloc`: bump allocation with on-demand
/// `memory.grow` (8-byte aligned).
fn build_alloc_body(heap_global: u32) -> Vec<Instr> {
    use Instr::*;
    vec![
        // p = heap
        GlobalGet(heap_global),
        LocalSet(1),
        // heap = p + ((n + 7) & -8)
        LocalGet(1),
        LocalGet(0),
        I32Const(7),
        I32Add,
        I32Const(-8),
        I32And,
        I32Add,
        GlobalSet(heap_global),
        // needed_pages = (heap + 65535) >>u 16
        GlobalGet(heap_global),
        I32Const(65535),
        I32Add,
        I32Const(16),
        I32ShrU,
        LocalSet(2),
        // if needed_pages > memory.size { grow or trap }
        LocalGet(2),
        MemorySize,
        I32GtU,
        If(BlockType::Empty),
        LocalGet(2),
        MemorySize,
        I32Sub,
        MemoryGrow,
        I32Const(-1),
        I32Eq,
        If(BlockType::Empty),
        Unreachable,
        End,
        End,
        LocalGet(1),
        End,
    ]
}

fn collect_strings(program: &Program, f: &mut impl FnMut(&str)) {
    fn walk_expr(e: &Expr, f: &mut impl FnMut(&str)) {
        match &e.kind {
            ExprKind::StrLit(s) => f(s),
            ExprKind::Binary(_, a, b) | ExprKind::Index(a, b) => {
                walk_expr(a, f);
                walk_expr(b, f);
            }
            ExprKind::Unary(_, a) | ExprKind::Cast(_, a) | ExprKind::Deref(a) => walk_expr(a, f),
            ExprKind::Ternary(a, b, c) => {
                walk_expr(a, f);
                walk_expr(b, f);
                walk_expr(c, f);
            }
            ExprKind::Call(_, args) => {
                for a in args {
                    walk_expr(a, f);
                }
            }
            _ => {}
        }
    }
    fn walk_stmts(stmts: &[Stmt], f: &mut impl FnMut(&str)) {
        for s in stmts {
            match s {
                Stmt::Decl { init: Some(e), .. } => walk_expr(e, f),
                Stmt::Decl { init: None, .. } => {}
                Stmt::Assign { target, value, .. } => {
                    match target {
                        LValue::Index(a, b) => {
                            walk_expr(a, f);
                            walk_expr(b, f);
                        }
                        LValue::Deref(a) => walk_expr(a, f),
                        LValue::Var(_) => {}
                    }
                    walk_expr(value, f);
                }
                Stmt::Expr(e) => walk_expr(e, f),
                Stmt::If { cond, then, els } => {
                    walk_expr(cond, f);
                    walk_stmts(then, f);
                    if let Some(els) = els {
                        walk_stmts(els, f);
                    }
                }
                Stmt::While { cond, body } => {
                    walk_expr(cond, f);
                    walk_stmts(body, f);
                }
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                } => {
                    if let Some(s) = init {
                        walk_stmts(std::slice::from_ref(s), f);
                    }
                    if let Some(c) = cond {
                        walk_expr(c, f);
                    }
                    if let Some(s) = step {
                        walk_stmts(std::slice::from_ref(s), f);
                    }
                    walk_stmts(body, f);
                }
                Stmt::Return(Some(e), _) => walk_expr(e, f),
                Stmt::Block(b) => walk_stmts(b, f),
                _ => {}
            }
        }
    }
    for func in &program.functions {
        if let Some(body) = &func.body {
            walk_stmts(body, f);
        }
    }
}

struct FuncCtx<'a> {
    sigs: &'a HashMap<String, FuncSig>,
    globals: &'a HashMap<String, GlobalInfo>,
    strings: &'a HashMap<String, u32>,
    ret: Ty,
    scopes: Vec<HashMap<String, (u32, Ty)>>,
    local_types: Vec<ValType>,
    local_tys: Vec<Ty>,
    code: Vec<Instr>,
    /// Current structured-control nesting depth.
    depth: u32,
    loops: Vec<LoopCtx>,
}

impl<'a> FuncCtx<'a> {
    fn new(
        sigs: &'a HashMap<String, FuncSig>,
        globals: &'a HashMap<String, GlobalInfo>,
        strings: &'a HashMap<String, u32>,
        f: &Function,
    ) -> Self {
        let mut ctx = FuncCtx {
            sigs,
            globals,
            strings,
            ret: f.ret.clone(),
            scopes: vec![HashMap::new()],
            local_types: Vec::new(),
            local_tys: Vec::new(),
            code: Vec::new(),
            depth: 0,
            loops: Vec::new(),
        };
        for p in &f.params {
            let idx = ctx.local_types.len() as u32;
            ctx.local_types.push(wasm_ty(&p.ty));
            ctx.local_tys.push(p.ty.clone());
            ctx.scopes[0].insert(p.name.clone(), (idx, p.ty.clone()));
        }
        ctx
    }

    fn new_local(&mut self, ty: &Ty) -> u32 {
        let idx = self.local_types.len() as u32;
        self.local_types.push(wasm_ty(ty));
        self.local_tys.push(ty.clone());
        idx
    }

    fn lookup(&self, name: &str) -> Option<(Storage, Ty)> {
        for scope in self.scopes.iter().rev() {
            if let Some((idx, ty)) = scope.get(name) {
                return Some((Storage::Local(*idx), ty.clone()));
            }
        }
        self.globals
            .get(name)
            .map(|g| (Storage::Global(g.index), g.ty.clone()))
    }

    // ---- Control helpers ---------------------------------------------------

    fn open(&mut self, instr: Instr) -> u32 {
        self.code.push(instr);
        let label = self.depth;
        self.depth += 1;
        label
    }

    fn close(&mut self) {
        self.code.push(Instr::End);
        self.depth -= 1;
    }

    fn branch_to(&self, label: u32) -> u32 {
        self.depth - 1 - label
    }

    // ---- Statements ---------------------------------------------------------

    fn stmts(&mut self, stmts: &[Stmt]) -> CResult<()> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn stmt(&mut self, stmt: &Stmt) -> CResult<()> {
        match stmt {
            Stmt::Decl {
                ty,
                name,
                init,
                line,
            } => {
                if self.scopes.last().expect("scope").contains_key(name) {
                    return err(*line, format!("duplicate variable '{name}' in scope"));
                }
                let idx = self.new_local(ty);
                if let Some(e) = init {
                    let ety = self.expr(e)?;
                    self.convert(&ety, ty, *line)?;
                    self.code.push(Instr::LocalSet(idx));
                }
                self.scopes
                    .last_mut()
                    .expect("scope")
                    .insert(name.clone(), (idx, ty.clone()));
                Ok(())
            }
            Stmt::Assign {
                target,
                value,
                line,
            } => self.assign(target, value, *line),
            Stmt::Expr(e) => {
                let ty = self.expr(e)?;
                if ty != Ty::Void {
                    self.code.push(Instr::Drop);
                }
                Ok(())
            }
            Stmt::If { cond, then, els } => {
                let cty = self.expr(cond)?;
                self.emit_truthy(&cty, cond.line)?;
                self.open(Instr::If(BlockType::Empty));
                self.scopes.push(HashMap::new());
                self.stmts(then)?;
                self.scopes.pop();
                if let Some(els) = els {
                    self.code.push(Instr::Else);
                    self.scopes.push(HashMap::new());
                    self.stmts(els)?;
                    self.scopes.pop();
                }
                self.close();
                Ok(())
            }
            Stmt::While { cond, body } => {
                let break_label = self.open(Instr::Block(BlockType::Empty));
                let loop_label = self.open(Instr::Loop(BlockType::Empty));
                let cty = self.expr(cond)?;
                self.emit_truthy(&cty, cond.line)?;
                self.code.push(Instr::I32Eqz);
                self.code.push(Instr::BrIf(self.branch_to(break_label)));
                self.loops.push(LoopCtx {
                    break_label,
                    continue_label: loop_label,
                });
                self.scopes.push(HashMap::new());
                self.stmts(body)?;
                self.scopes.pop();
                self.loops.pop();
                self.code.push(Instr::Br(self.branch_to(loop_label)));
                self.close(); // loop
                self.close(); // block
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.stmt(init)?;
                }
                let break_label = self.open(Instr::Block(BlockType::Empty));
                let loop_label = self.open(Instr::Loop(BlockType::Empty));
                if let Some(cond) = cond {
                    let cty = self.expr(cond)?;
                    self.emit_truthy(&cty, cond.line)?;
                    self.code.push(Instr::I32Eqz);
                    self.code.push(Instr::BrIf(self.branch_to(break_label)));
                }
                let continue_label = self.open(Instr::Block(BlockType::Empty));
                self.loops.push(LoopCtx {
                    break_label,
                    continue_label,
                });
                self.scopes.push(HashMap::new());
                self.stmts(body)?;
                self.scopes.pop();
                self.loops.pop();
                self.close(); // continue block
                if let Some(step) = step {
                    self.stmt(step)?;
                }
                self.code.push(Instr::Br(self.branch_to(loop_label)));
                self.close(); // loop
                self.close(); // break block
                self.scopes.pop();
                Ok(())
            }
            Stmt::Return(value, line) => {
                match (value, self.ret.clone()) {
                    (None, Ty::Void) => {}
                    (None, ret) => return err(*line, format!("function returns {ret}")),
                    (Some(_), Ty::Void) => {
                        return err(*line, "void function cannot return a value")
                    }
                    (Some(e), ret) => {
                        let ety = self.expr(e)?;
                        self.convert(&ety, &ret, *line)?;
                    }
                }
                self.code.push(Instr::Return);
                Ok(())
            }
            Stmt::Break(line) => {
                let Some(ctx) = self.loops.last() else {
                    return err(*line, "break outside of loop");
                };
                self.code.push(Instr::Br(self.branch_to(ctx.break_label)));
                Ok(())
            }
            Stmt::Continue(line) => {
                let Some(ctx) = self.loops.last() else {
                    return err(*line, "continue outside of loop");
                };
                self.code
                    .push(Instr::Br(self.branch_to(ctx.continue_label)));
                Ok(())
            }
            Stmt::Block(body) => {
                self.scopes.push(HashMap::new());
                self.stmts(body)?;
                self.scopes.pop();
                Ok(())
            }
        }
    }

    fn assign(&mut self, target: &LValue, value: &Expr, line: u32) -> CResult<()> {
        match target {
            LValue::Var(name) => {
                let Some((storage, ty)) = self.lookup(name) else {
                    return err(line, format!("unknown variable '{name}'"));
                };
                let vty = self.expr(value)?;
                self.convert(&vty, &ty, line)?;
                match storage {
                    Storage::Local(idx) => self.code.push(Instr::LocalSet(idx)),
                    Storage::Global(idx) => self.code.push(Instr::GlobalSet(idx)),
                }
                Ok(())
            }
            LValue::Index(base, index) => {
                let bty = self.expr(base)?;
                let Ty::Ptr(elem) = bty else {
                    return err(line, format!("cannot index non-pointer type {bty}"));
                };
                let ity = self.expr(index)?;
                self.emit_index_i32(&ity, line)?;
                self.scale_index(&elem);
                self.code.push(Instr::I32Add);
                let vty = self.expr(value)?;
                self.convert(&vty, &elem, line)?;
                self.emit_store(&elem);
                Ok(())
            }
            LValue::Deref(ptr) => {
                let pty = self.expr(ptr)?;
                let Ty::Ptr(elem) = pty else {
                    return err(line, format!("cannot dereference non-pointer type {pty}"));
                };
                let vty = self.expr(value)?;
                self.convert(&vty, &elem, line)?;
                self.emit_store(&elem);
                Ok(())
            }
        }
    }

    // ---- Expressions --------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn expr(&mut self, e: &Expr) -> CResult<Ty> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                if let Ok(v32) = i32::try_from(*v) {
                    self.code.push(Instr::I32Const(v32));
                    Ok(Ty::Int)
                } else {
                    self.code.push(Instr::I64Const(*v));
                    Ok(Ty::Long)
                }
            }
            ExprKind::FloatLit(v) => {
                self.code.push(Instr::F64Const(*v));
                Ok(Ty::Double)
            }
            ExprKind::StrLit(s) => {
                let addr = self.strings[s];
                self.code.push(Instr::I32Const(addr as i32));
                Ok(Ty::Int)
            }
            ExprKind::Var(name) => {
                let Some((storage, ty)) = self.lookup(name) else {
                    return err(e.line, format!("unknown variable '{name}'"));
                };
                match storage {
                    Storage::Local(idx) => self.code.push(Instr::LocalGet(idx)),
                    Storage::Global(idx) => self.code.push(Instr::GlobalGet(idx)),
                }
                Ok(ty)
            }
            ExprKind::SizeOf(ty) => {
                self.code.push(Instr::I32Const(ty.size() as i32));
                Ok(Ty::Int)
            }
            ExprKind::Unary(op, inner) => self.unary(*op, inner, e.line),
            ExprKind::Binary(op, a, b) => self.binary(*op, a, b, e.line),
            ExprKind::Cast(to, inner) => {
                let from = self.expr(inner)?;
                self.cast(&from, to, e.line)?;
                Ok(to.clone())
            }
            ExprKind::Deref(ptr) => {
                let pty = self.expr(ptr)?;
                let Ty::Ptr(elem) = pty else {
                    return err(e.line, format!("cannot dereference non-pointer type {pty}"));
                };
                self.emit_load(&elem);
                Ok(*elem)
            }
            ExprKind::Index(base, index) => {
                let bty = self.expr(base)?;
                let Ty::Ptr(elem) = bty else {
                    return err(e.line, format!("cannot index non-pointer type {bty}"));
                };
                let ity = self.expr(index)?;
                self.emit_index_i32(&ity, e.line)?;
                self.scale_index(&elem);
                self.code.push(Instr::I32Add);
                self.emit_load(&elem);
                Ok(*elem)
            }
            ExprKind::Ternary(cond, a, b) => {
                let cty = self.expr(cond)?;
                self.emit_truthy(&cty, cond.line)?;
                // Generate both arms into buffers to learn their types.
                let (a_code, a_ty) = self.buffered(|ctx| ctx.expr(a))?;
                let (b_code, b_ty) = self.buffered(|ctx| ctx.expr(b))?;
                let result = if a_ty == b_ty {
                    a_ty.clone()
                } else if (a_ty.is_integral() || a_ty.is_float())
                    && (b_ty.is_integral() || b_ty.is_float())
                {
                    promote(&a_ty, &b_ty)
                } else {
                    return err(e.line, format!("ternary arms disagree: {a_ty} vs {b_ty}"));
                };
                self.open(Instr::If(BlockType::Value(wasm_ty(&result))));
                self.code.extend(a_code);
                self.convert(&a_ty, &result, e.line)?;
                self.code.push(Instr::Else);
                self.code.extend(b_code);
                self.convert(&b_ty, &result, e.line)?;
                self.close();
                Ok(result)
            }
            ExprKind::Call(name, args) => self.call(name, args, e.line),
        }
    }

    /// Runs `f` with a fresh code buffer, returning the generated code.
    fn buffered<T>(&mut self, f: impl FnOnce(&mut Self) -> CResult<T>) -> CResult<(Vec<Instr>, T)> {
        let saved = std::mem::take(&mut self.code);
        let result = f(self);
        let buffer = std::mem::replace(&mut self.code, saved);
        Ok((buffer, result?))
    }

    fn unary(&mut self, op: UnOp, inner: &Expr, line: u32) -> CResult<Ty> {
        let ty = self.expr(inner)?;
        match op {
            UnOp::Neg => match ty {
                Ty::Int => {
                    self.code.push(Instr::I32Const(-1));
                    self.code.push(Instr::I32Mul);
                    Ok(Ty::Int)
                }
                Ty::Long => {
                    self.code.push(Instr::I64Const(-1));
                    self.code.push(Instr::I64Mul);
                    Ok(Ty::Long)
                }
                Ty::Float => {
                    self.code.push(Instr::F32Neg);
                    Ok(Ty::Float)
                }
                Ty::Double => {
                    self.code.push(Instr::F64Neg);
                    Ok(Ty::Double)
                }
                other => err(line, format!("cannot negate {other}")),
            },
            UnOp::Not => {
                self.emit_truthy(&ty, line)?;
                self.code.push(Instr::I32Eqz);
                Ok(Ty::Int)
            }
            UnOp::BitNot => match ty {
                Ty::Int => {
                    self.code.push(Instr::I32Const(-1));
                    self.code.push(Instr::I32Xor);
                    Ok(Ty::Int)
                }
                Ty::Long => {
                    self.code.push(Instr::I64Const(-1));
                    self.code.push(Instr::I64Xor);
                    Ok(Ty::Long)
                }
                other => err(line, format!("cannot bit-complement {other}")),
            },
        }
    }

    #[allow(clippy::too_many_lines)]
    fn binary(&mut self, op: BinOp, a: &Expr, b: &Expr, line: u32) -> CResult<Ty> {
        // Short-circuit logic first: operands must not both be evaluated.
        if matches!(op, BinOp::LogicalAnd | BinOp::LogicalOr) {
            let aty = self.expr(a)?;
            self.emit_truthy(&aty, line)?;
            let (b_code, bty) = self.buffered(|ctx| ctx.expr(b))?;
            self.open(Instr::If(BlockType::Value(ValType::I32)));
            if op == BinOp::LogicalAnd {
                self.code.extend(b_code);
                self.emit_truthy(&bty, line)?;
                self.code.push(Instr::Else);
                self.code.push(Instr::I32Const(0));
            } else {
                self.code.push(Instr::I32Const(1));
                self.code.push(Instr::Else);
                self.code.extend(b_code);
                self.emit_truthy(&bty, line)?;
            }
            self.close();
            return Ok(Ty::Int);
        }

        let aty = self.expr(a)?;

        // Pointer arithmetic: p + n, p - n, p - q.
        if let Ty::Ptr(elem) = &aty {
            match op {
                BinOp::Add | BinOp::Sub => {
                    let (b_code, bty) = self.buffered(|ctx| ctx.expr(b))?;
                    if let Ty::Ptr(belem) = &bty {
                        if op == BinOp::Sub {
                            if belem != elem {
                                return err(line, "pointer subtraction of distinct types");
                            }
                            self.code.extend(b_code);
                            self.code.push(Instr::I32Sub);
                            self.code.push(Instr::I32Const(elem.size() as i32));
                            self.code.push(Instr::I32DivS);
                            return Ok(Ty::Int);
                        }
                        return err(line, "cannot add two pointers");
                    }
                    self.code.extend(b_code);
                    self.emit_index_i32(&bty, line)?;
                    self.scale_index(elem);
                    self.code.push(if op == BinOp::Add {
                        Instr::I32Add
                    } else {
                        Instr::I32Sub
                    });
                    return Ok(aty.clone());
                }
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let bty = self.expr(b)?;
                    if !matches!(bty, Ty::Ptr(_) | Ty::Int) {
                        return err(line, format!("cannot compare pointer with {bty}"));
                    }
                    self.code.push(match op {
                        BinOp::Eq => Instr::I32Eq,
                        BinOp::Ne => Instr::I32Ne,
                        BinOp::Lt => Instr::I32LtU,
                        BinOp::Le => Instr::I32LeU,
                        BinOp::Gt => Instr::I32GtU,
                        BinOp::Ge => Instr::I32GeU,
                        _ => unreachable!(),
                    });
                    return Ok(Ty::Int);
                }
                _ => return err(line, "unsupported pointer operation"),
            }
        }

        // Plain numeric operation with promotion. The left operand is
        // already on the stack; convert it, then generate the right side.
        let (b_code, bty) = self.buffered(|ctx| ctx.expr(b))?;
        if matches!(bty, Ty::Ptr(_)) {
            // n + p: only addition is meaningful.
            if op == BinOp::Add {
                let Ty::Ptr(elem) = &bty else { unreachable!() };
                self.emit_index_i32(&aty, line)?;
                self.scale_index(elem);
                self.code.extend(b_code);
                self.code.push(Instr::I32Add);
                return Ok(bty);
            }
            return err(line, "unsupported pointer operation");
        }
        if !(aty.is_integral() || aty.is_float()) || !(bty.is_integral() || bty.is_float()) {
            return err(line, format!("invalid operands: {aty} and {bty}"));
        }
        let common = promote(&aty, &bty);
        // Bit ops require integral operands.
        if matches!(
            op,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr | BinOp::Rem
        ) && common.is_float()
        {
            return err(
                line,
                format!("operator requires integral operands, got {common}"),
            );
        }
        self.convert(&aty, &common, line)?;
        self.code.extend(b_code);
        self.convert(&bty, &common, line)?;

        let is_cmp = matches!(
            op,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        );
        self.code.push(select_op(op, &common));
        Ok(if is_cmp { Ty::Int } else { common })
    }

    fn call(&mut self, name: &str, args: &[Expr], line: u32) -> CResult<Ty> {
        // Compiler builtins first.
        match name {
            "sqrt" | "fabs" | "floor" | "ceil" | "trunc" => {
                self.expect_args(name, args, 1, line)?;
                let ty = self.expr(&args[0])?;
                self.convert(&ty, &Ty::Double, line)?;
                self.code.push(match name {
                    "sqrt" => Instr::F64Sqrt,
                    "fabs" => Instr::F64Abs,
                    "floor" => Instr::F64Floor,
                    "ceil" => Instr::F64Ceil,
                    _ => Instr::F64Trunc,
                });
                return Ok(Ty::Double);
            }
            "__bits2d" => {
                self.expect_args(name, args, 1, line)?;
                let ty = self.expr(&args[0])?;
                self.convert(&ty, &Ty::Long, line)?;
                self.code.push(Instr::F64ReinterpretI64);
                return Ok(Ty::Double);
            }
            "__d2bits" => {
                self.expect_args(name, args, 1, line)?;
                let ty = self.expr(&args[0])?;
                self.convert(&ty, &Ty::Double, line)?;
                self.code.push(Instr::I64ReinterpretF64);
                return Ok(Ty::Long);
            }
            "lb" => {
                self.expect_args(name, args, 1, line)?;
                let ty = self.expr(&args[0])?;
                self.emit_index_i32(&ty, line)?;
                self.code.push(Instr::I32Load8U(MemArg::align(0)));
                return Ok(Ty::Int);
            }
            "sb" => {
                self.expect_args(name, args, 2, line)?;
                let pty = self.expr(&args[0])?;
                self.emit_index_i32(&pty, line)?;
                let vty = self.expr(&args[1])?;
                self.convert(&vty, &Ty::Int, line)?;
                self.code.push(Instr::I32Store8(MemArg::align(0)));
                return Ok(Ty::Void);
            }
            "memcopy" => {
                self.expect_args(name, args, 3, line)?;
                for a in args {
                    let ty = self.expr(a)?;
                    self.emit_index_i32(&ty, line)?;
                }
                self.code.push(Instr::MemoryCopy);
                return Ok(Ty::Void);
            }
            "memfill" => {
                self.expect_args(name, args, 3, line)?;
                for a in args {
                    let ty = self.expr(a)?;
                    self.emit_index_i32(&ty, line)?;
                }
                self.code.push(Instr::MemoryFill);
                return Ok(Ty::Void);
            }
            _ => {}
        }

        let Some(sig) = self.sigs.get(name).cloned() else {
            return err(line, format!("unknown function '{name}'"));
        };
        if sig.params.len() != args.len() {
            return err(
                line,
                format!(
                    "'{name}' expects {} arguments, got {}",
                    sig.params.len(),
                    args.len()
                ),
            );
        }
        for (arg, pty) in args.iter().zip(&sig.params) {
            let aty = self.expr(arg)?;
            self.convert(&aty, pty, line)?;
        }
        self.code.push(Instr::Call(sig.index));
        Ok(sig.ret)
    }

    fn expect_args(&self, name: &str, args: &[Expr], n: usize, line: u32) -> CResult<()> {
        if args.len() != n {
            return err(line, format!("'{name}' expects {n} argument(s)"));
        }
        Ok(())
    }

    // ---- Conversions and memory access --------------------------------------

    /// Implicit conversion (assignment/argument/promotion contexts).
    fn convert(&mut self, from: &Ty, to: &Ty, line: u32) -> CResult<()> {
        if from == to {
            return Ok(());
        }
        match (from, to) {
            // Pointer-compatible: same representation.
            (Ty::Ptr(_), Ty::Ptr(_)) | (Ty::Int, Ty::Ptr(_)) | (Ty::Ptr(_), Ty::Int) => Ok(()),
            _ => self.cast(from, to, line),
        }
    }

    /// Explicit numeric / pointer cast.
    fn cast(&mut self, from: &Ty, to: &Ty, line: u32) -> CResult<()> {
        use Instr::*;
        if from == to {
            return Ok(());
        }
        let instrs: &[Instr] = match (from, to) {
            (Ty::Ptr(_), Ty::Ptr(_) | Ty::Int) | (Ty::Int, Ty::Ptr(_)) => &[],
            (Ty::Ptr(_), Ty::Long) => &[I64ExtendI32U],
            (Ty::Long, Ty::Ptr(_)) => &[I32WrapI64],
            (Ty::Int, Ty::Long) => &[I64ExtendI32S],
            (Ty::Int, Ty::Float) => &[F32ConvertI32S],
            (Ty::Int, Ty::Double) => &[F64ConvertI32S],
            (Ty::Long, Ty::Int) => &[I32WrapI64],
            (Ty::Long, Ty::Float) => &[F32ConvertI64S],
            (Ty::Long, Ty::Double) => &[F64ConvertI64S],
            (Ty::Float, Ty::Int) => &[I32TruncF32S],
            (Ty::Float, Ty::Long) => &[I64TruncF32S],
            (Ty::Float, Ty::Double) => &[F64PromoteF32],
            (Ty::Double, Ty::Int) => &[I32TruncF64S],
            (Ty::Double, Ty::Long) => &[I64TruncF64S],
            (Ty::Double, Ty::Float) => &[F32DemoteF64],
            (Ty::Float | Ty::Double, Ty::Ptr(_)) | (Ty::Ptr(_), Ty::Float | Ty::Double) => {
                return err(line, format!("cannot cast {from} to {to}"))
            }
            _ => return err(line, format!("cannot convert {from} to {to}")),
        };
        self.code.extend_from_slice(instrs);
        Ok(())
    }

    /// Leaves an i32 "is nonzero" flag for any numeric/pointer value.
    fn emit_truthy(&mut self, ty: &Ty, line: u32) -> CResult<()> {
        match ty {
            Ty::Int | Ty::Ptr(_) => {
                self.code.push(Instr::I32Eqz);
                self.code.push(Instr::I32Eqz);
            }
            Ty::Long => {
                self.code.push(Instr::I64Eqz);
                self.code.push(Instr::I32Eqz);
            }
            Ty::Float => {
                self.code.push(Instr::F32Const(0.0));
                self.code.push(Instr::F32Ne);
            }
            Ty::Double => {
                self.code.push(Instr::F64Const(0.0));
                self.code.push(Instr::F64Ne);
            }
            Ty::Void => return err(line, "void value in boolean context"),
        }
        Ok(())
    }

    /// Converts an index/count value to i32 (addresses are 32-bit).
    fn emit_index_i32(&mut self, ty: &Ty, line: u32) -> CResult<()> {
        match ty {
            Ty::Int | Ty::Ptr(_) => Ok(()),
            Ty::Long => {
                self.code.push(Instr::I32WrapI64);
                Ok(())
            }
            other => err(line, format!("index must be integral, got {other}")),
        }
    }

    /// Multiplies the i32 on the stack by the element size.
    fn scale_index(&mut self, elem: &Ty) {
        let size = elem.size() as i32;
        if size != 1 {
            self.code.push(Instr::I32Const(size));
            self.code.push(Instr::I32Mul);
        }
    }

    fn emit_load(&mut self, elem: &Ty) {
        let m = MemArg::align(elem.size().trailing_zeros());
        self.code.push(match elem {
            Ty::Int | Ty::Ptr(_) => Instr::I32Load(m),
            Ty::Long => Instr::I64Load(m),
            Ty::Float => Instr::F32Load(m),
            Ty::Double => Instr::F64Load(m),
            Ty::Void => unreachable!("void load"),
        });
    }

    fn emit_store(&mut self, elem: &Ty) {
        let m = MemArg::align(elem.size().trailing_zeros());
        self.code.push(match elem {
            Ty::Int | Ty::Ptr(_) => Instr::I32Store(m),
            Ty::Long => Instr::I64Store(m),
            Ty::Float => Instr::F32Store(m),
            Ty::Double => Instr::F64Store(m),
            Ty::Void => unreachable!("void store"),
        });
    }
}

#[derive(Debug, Clone, Copy)]
enum Storage {
    Local(u32),
    Global(u32),
}

fn select_op(op: BinOp, ty: &Ty) -> Instr {
    use Instr::*;
    match ty {
        Ty::Int => match op {
            BinOp::Add => I32Add,
            BinOp::Sub => I32Sub,
            BinOp::Mul => I32Mul,
            BinOp::Div => I32DivS,
            BinOp::Rem => I32RemS,
            BinOp::And => I32And,
            BinOp::Or => I32Or,
            BinOp::Xor => I32Xor,
            BinOp::Shl => I32Shl,
            BinOp::Shr => I32ShrS,
            BinOp::Lt => I32LtS,
            BinOp::Le => I32LeS,
            BinOp::Gt => I32GtS,
            BinOp::Ge => I32GeS,
            BinOp::Eq => I32Eq,
            BinOp::Ne => I32Ne,
            BinOp::LogicalAnd | BinOp::LogicalOr => unreachable!("handled earlier"),
        },
        Ty::Long => match op {
            BinOp::Add => I64Add,
            BinOp::Sub => I64Sub,
            BinOp::Mul => I64Mul,
            BinOp::Div => I64DivS,
            BinOp::Rem => I64RemS,
            BinOp::And => I64And,
            BinOp::Or => I64Or,
            BinOp::Xor => I64Xor,
            BinOp::Shl => I64Shl,
            BinOp::Shr => I64ShrS,
            BinOp::Lt => I64LtS,
            BinOp::Le => I64LeS,
            BinOp::Gt => I64GtS,
            BinOp::Ge => I64GeS,
            BinOp::Eq => I64Eq,
            BinOp::Ne => I64Ne,
            BinOp::LogicalAnd | BinOp::LogicalOr => unreachable!("handled earlier"),
        },
        Ty::Float => match op {
            BinOp::Add => F32Add,
            BinOp::Sub => F32Sub,
            BinOp::Mul => F32Mul,
            BinOp::Div => F32Div,
            BinOp::Lt => F32Lt,
            BinOp::Le => F32Le,
            BinOp::Gt => F32Gt,
            BinOp::Ge => F32Ge,
            BinOp::Eq => F32Eq,
            BinOp::Ne => F32Ne,
            _ => unreachable!("checked integral"),
        },
        Ty::Double => match op {
            BinOp::Add => F64Add,
            BinOp::Sub => F64Sub,
            BinOp::Mul => F64Mul,
            BinOp::Div => F64Div,
            BinOp::Lt => F64Lt,
            BinOp::Le => F64Le,
            BinOp::Gt => F64Gt,
            BinOp::Ge => F64Ge,
            BinOp::Eq => F64Eq,
            BinOp::Ne => F64Ne,
            _ => unreachable!("checked integral"),
        },
        Ty::Ptr(_) | Ty::Void => unreachable!("pointer ops handled earlier"),
    }
}
