//! Elaboration: lowering a parsed [`Module`] to a [`TransitionSystem`].
//!
//! The elaborator resolves parameters, infers widths with Verilog-style
//! context rules (operands extended to the widest, right-hand sides fitted
//! to assignment targets), symbolically executes procedural blocks, and
//! derives initial-state values by evaluating each register's next-state
//! function under an asserted reset.

use crate::ast::*;
use crate::lexer::Pos;
use genfv_ir::{BitVecValue, Context, ExprRef, TransitionSystem};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// Elaboration failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElabError {
    /// Position, when attributable.
    pub pos: Option<Pos>,
    /// Human-readable message.
    pub message: String,
}

impl ElabError {
    fn new(message: impl Into<String>) -> Self {
        ElabError { pos: None, message: message.into() }
    }

    fn at(pos: Pos, message: impl Into<String>) -> Self {
        ElabError { pos: Some(pos), message: message.into() }
    }
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "elaboration error at {p}: {}", self.message),
            None => write!(f, "elaboration error: {}", self.message),
        }
    }
}

impl Error for ElabError {}

/// Options controlling elaboration.
#[derive(Clone, Debug)]
pub struct ElaborateOptions {
    /// Name of the reset input. `None` auto-detects: the asynchronous-reset
    /// signal from a sensitivity list, or an input named `rst`/`reset`.
    pub reset: Option<String>,
    /// Derive register init values by evaluating the next-state function
    /// with the reset asserted (formal "reset applied at time 0"
    /// convention). Registers whose reset value is not constant stay
    /// uninitialised.
    pub apply_reset_init: bool,
    /// Parameter overrides applied over the module's declared defaults.
    pub params: Vec<(String, u64)>,
}

impl Default for ElaborateOptions {
    fn default() -> Self {
        ElaborateOptions { reset: None, apply_reset_init: true, params: Vec::new() }
    }
}

/// Elaborates `module` into a transition system over `ctx` with default
/// options.
///
/// # Errors
/// Returns [`ElabError`] for undeclared nets, width errors, non-constant
/// parameters/ranges, combinational cycles, incomplete `always_comb`
/// assignments, or unsupported constructs.
pub fn elaborate(ctx: &mut Context, module: &Module) -> Result<TransitionSystem, ElabError> {
    elaborate_with(ctx, module, &ElaborateOptions::default())
}

/// Elaborates with explicit [`ElaborateOptions`].
///
/// # Errors
/// See [`elaborate`].
pub fn elaborate_with(
    ctx: &mut Context,
    module: &Module,
    options: &ElaborateOptions,
) -> Result<TransitionSystem, ElabError> {
    Elaborator::new(ctx, module, options)?.run()
}

#[derive(Clone, Debug)]
enum NetDef {
    Input,
    Reg,
    /// Driven by `assign` with the given expression.
    Assign(Expr),
    /// Driven by the `always_comb` item at the given index.
    CombBlock(usize),
}

struct Elaborator<'a> {
    ctx: &'a mut Context,
    module: &'a Module,
    options: &'a ElaborateOptions,
    params: HashMap<String, BitVecValue>,
    widths: HashMap<String, u32>,
    defs: HashMap<String, NetDef>,
    resolved: HashMap<String, ExprRef>,
    resolving: HashSet<String>,
    clocks: HashSet<String>,
    reset: Option<String>,
}

impl<'a> Elaborator<'a> {
    fn new(
        ctx: &'a mut Context,
        module: &'a Module,
        options: &'a ElaborateOptions,
    ) -> Result<Self, ElabError> {
        Ok(Elaborator {
            ctx,
            module,
            options,
            params: HashMap::new(),
            widths: HashMap::new(),
            defs: HashMap::new(),
            resolved: HashMap::new(),
            resolving: HashSet::new(),
            clocks: HashSet::new(),
            reset: None,
        })
    }

    fn run(mut self) -> Result<TransitionSystem, ElabError> {
        self.eval_params()?;
        self.collect_clocks_and_reset();
        self.collect_decls()?;
        self.classify_defs()?;

        let mut ts = TransitionSystem::new(&self.module.name);

        // Inputs (clock ports are implicit and skipped).
        for port in &self.module.ports {
            if port.dir == PortDir::Input && !self.clocks.contains(&port.name) {
                let sym = self.resolve(&port.name)?;
                ts.add_input(sym);
                ts.add_signal(&port.name, sym);
            }
        }

        // Registers: next-state functions from clocked blocks.
        let regs = self.module.clocked_targets();
        let mut next_map: HashMap<String, ExprRef> = HashMap::new();
        let mut assigned_in: HashMap<String, usize> = HashMap::new();
        for (idx, item) in self.module.items.iter().enumerate() {
            if let Item::AlwaysFf { body, pos, .. } = item {
                // Every register starts at "hold current value". Ordered
                // maps here and in `exec_comb`: branch merges intern their
                // muxes in name order, so identical sources elaborate to
                // identical arenas.
                let mut envmap: BTreeMap<String, ExprRef> = BTreeMap::new();
                for r in &regs {
                    envmap.insert(r.clone(), self.resolve(r)?);
                }
                let touched = self.exec_clocked(body, &mut envmap, *pos)?;
                for t in touched {
                    if let Some(prev) = assigned_in.insert(t.clone(), idx) {
                        if prev != idx {
                            return Err(ElabError::at(
                                *pos,
                                format!("register `{t}` driven from multiple always blocks"),
                            ));
                        }
                    }
                    next_map.insert(t.clone(), envmap[&t]);
                }
            }
        }

        // Derive init from reset, if requested and detectable.
        let reset_sym = match &self.reset {
            Some(r) if self.options.apply_reset_init => {
                // The reset must be a non-clock input to be substitutable.
                self.resolved.get(r).copied()
            }
            _ => None,
        };

        for r in &regs {
            let sym = self.resolve(r)?;
            let next = next_map.get(r).copied().unwrap_or(sym);
            let init = match reset_sym {
                Some(rs) => {
                    let one = self.ctx.constant(1, 1);
                    let map = HashMap::from([(rs, one)]);
                    let candidate = self.ctx.substitute(next, &map);
                    self.ctx.const_value(candidate).map(|_| candidate)
                }
                None => None,
            };
            ts.add_state(sym, init, next);
            ts.add_signal(r, sym);
        }

        // Publish outputs and combinational nets as signals.
        for port in &self.module.ports {
            if port.dir == PortDir::Output && !regs.contains(&port.name) {
                let e = self.resolve(&port.name)?;
                ts.add_signal(&port.name, e);
            }
        }
        for item in &self.module.items {
            if let Item::Net { names, .. } = item {
                for n in names {
                    if !regs.contains(n) && self.defs.contains_key(n) {
                        if let Ok(e) = self.resolve(n) {
                            if ts.find_signal(n).is_none() {
                                ts.add_signal(n, e);
                            }
                        }
                    }
                }
            }
        }

        Ok(ts)
    }

    // --- setup -----------------------------------------------------------

    fn eval_params(&mut self) -> Result<(), ElabError> {
        let overrides: HashMap<&str, u64> =
            self.options.params.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let header = self.module.header_params.clone();
        for (name, value) in &header {
            let v = match overrides.get(name.as_str()) {
                Some(&o) => BitVecValue::from_u64(o, 32),
                None => self.const_eval(value, None)?,
            };
            self.params.insert(name.clone(), v);
        }
        let items = self.module.items.clone();
        for item in &items {
            if let Item::Param { name, value, pos } = item {
                let v = self.const_eval(value, None).map_err(|e| ElabError::at(*pos, e.message))?;
                self.params.insert(name.clone(), v);
            }
        }
        Ok(())
    }

    fn collect_clocks_and_reset(&mut self) {
        for item in &self.module.items {
            if let Item::AlwaysFf { clock, async_reset, .. } = item {
                self.clocks.insert(clock.clone());
                if self.reset.is_none() {
                    if let Some(r) = async_reset {
                        self.reset = Some(r.clone());
                    }
                }
            }
        }
        if let Some(r) = &self.options.reset {
            self.reset = Some(r.clone());
        }
        if self.reset.is_none() {
            // Heuristic: conventional reset port names.
            for port in &self.module.ports {
                if port.dir == PortDir::Input
                    && matches!(port.name.as_str(), "rst" | "reset" | "rst_i" | "arst")
                {
                    self.reset = Some(port.name.clone());
                    break;
                }
            }
        }
    }

    fn range_width(&mut self, range: &Option<RangeDecl>) -> Result<u32, ElabError> {
        match range {
            None => Ok(1),
            Some(r) => {
                let hi = self.const_eval_u64(&r.hi)?;
                let lo = self.const_eval_u64(&r.lo)?;
                if lo != 0 {
                    return Err(ElabError::new(format!(
                        "only [N:0] ranges are supported, got [{hi}:{lo}]"
                    )));
                }
                if hi >= u64::from(BitVecValue::MAX_WIDTH) {
                    return Err(ElabError::new(format!(
                        "range [{hi}:0] is wider than {} bits",
                        BitVecValue::MAX_WIDTH
                    )));
                }
                Ok(hi as u32 + 1)
            }
        }
    }

    fn collect_decls(&mut self) -> Result<(), ElabError> {
        let ports = self.module.ports.clone();
        for port in &ports {
            let w =
                self.range_width(&port.range).map_err(|e| ElabError::at(port.pos, e.message))?;
            self.widths.insert(port.name.clone(), w);
        }
        let items = self.module.items.clone();
        for item in &items {
            if let Item::Net { range, names, pos } = item {
                let w = self.range_width(range).map_err(|e| ElabError::at(*pos, e.message))?;
                for n in names {
                    if self.widths.contains_key(n) {
                        return Err(ElabError::at(*pos, format!("`{n}` declared twice")));
                    }
                    self.widths.insert(n.clone(), w);
                }
            }
        }
        Ok(())
    }

    fn classify_defs(&mut self) -> Result<(), ElabError> {
        for port in &self.module.ports {
            if port.dir == PortDir::Input && !self.clocks.contains(&port.name) {
                self.defs.insert(port.name.clone(), NetDef::Input);
            }
        }
        for r in self.module.clocked_targets() {
            if !self.widths.contains_key(&r) {
                return Err(ElabError::new(format!("register `{r}` has no declaration")));
            }
            self.defs.insert(r, NetDef::Reg);
        }
        for (idx, item) in self.module.items.iter().enumerate() {
            match item {
                Item::Assign { target, rhs, pos } => {
                    if self.defs.contains_key(target) {
                        return Err(ElabError::at(*pos, format!("`{target}` multiply driven")));
                    }
                    self.defs.insert(target.clone(), NetDef::Assign(rhs.clone()));
                }
                Item::AlwaysComb { body, pos } => {
                    let mut targets = Vec::new();
                    collect_blocking_targets(body, &mut targets);
                    targets.sort();
                    targets.dedup();
                    for t in targets {
                        if self.defs.contains_key(&t) {
                            return Err(ElabError::at(*pos, format!("`{t}` multiply driven")));
                        }
                        self.defs.insert(t, NetDef::CombBlock(idx));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    // --- net resolution --------------------------------------------------

    fn width_of_net(&self, name: &str) -> Result<u32, ElabError> {
        self.widths
            .get(name)
            .copied()
            .ok_or_else(|| ElabError::new(format!("`{name}` is not declared")))
    }

    fn resolve(&mut self, name: &str) -> Result<ExprRef, ElabError> {
        if let Some(&e) = self.resolved.get(name) {
            return Ok(e);
        }
        if let Some(v) = self.params.get(name) {
            let e = self.ctx.value(v.clone());
            self.resolved.insert(name.to_string(), e);
            return Ok(e);
        }
        if self.resolving.contains(name) {
            return Err(ElabError::new(format!("combinational cycle through `{name}`")));
        }
        let def = self
            .defs
            .get(name)
            .cloned()
            .ok_or_else(|| ElabError::new(format!("`{name}` is never driven")))?;
        self.resolving.insert(name.to_string());
        let result = match def {
            NetDef::Input | NetDef::Reg => {
                let w = self.width_of_net(name)?;
                Ok(self.ctx.symbol(name, w))
            }
            NetDef::Assign(rhs) => {
                let w = self.width_of_net(name)?;
                let e = self.elab_expr(&rhs, Some(w))?;
                Ok(self.fit(e, w))
            }
            NetDef::CombBlock(idx) => {
                let item = self.module.items[idx].clone();
                let Item::AlwaysComb { body, pos } = item else { unreachable!() };
                let assignments = self.exec_comb(&body, pos)?;
                let mut own: Option<ExprRef> = None;
                for (t, e) in assignments {
                    let w = self.width_of_net(&t)?;
                    let fitted = self.fit(e, w);
                    if t == name {
                        own = Some(fitted);
                    }
                    self.resolved.entry(t).or_insert(fitted);
                }
                own.ok_or_else(|| {
                    ElabError::at(pos, format!("`{name}` may be unassigned in always_comb"))
                })
            }
        };
        self.resolving.remove(name);
        let e = result?;
        self.resolved.insert(name.to_string(), e);
        Ok(e)
    }

    // --- procedural execution ---------------------------------------------

    /// Executes a clocked body. `envmap` carries next-state expressions for
    /// every register (pre-seeded with "hold"); reads always see *current*
    /// state (non-blocking semantics). Returns the set of assigned registers.
    fn exec_clocked(
        &mut self,
        stmt: &Stmt,
        envmap: &mut BTreeMap<String, ExprRef>,
        pos: Pos,
    ) -> Result<Vec<String>, ElabError> {
        let mut touched = Vec::new();
        self.exec_clocked_inner(stmt, envmap, &mut touched, pos)?;
        touched.sort();
        touched.dedup();
        Ok(touched)
    }

    // `pos` threads the source position down for future diagnostics even
    // though only recursive calls consume it today.
    #[allow(clippy::only_used_in_recursion)]
    fn exec_clocked_inner(
        &mut self,
        stmt: &Stmt,
        envmap: &mut BTreeMap<String, ExprRef>,
        touched: &mut Vec<String>,
        pos: Pos,
    ) -> Result<(), ElabError> {
        match stmt {
            Stmt::Empty => {}
            Stmt::Block(ss) => {
                for s in ss {
                    self.exec_clocked_inner(s, envmap, touched, pos)?;
                }
            }
            Stmt::NonBlocking { target, rhs } | Stmt::Blocking { target, rhs } => {
                let w = self.width_of_net(&target.name)?;
                let e = self.elab_expr(rhs, Some(w)).map_err(|e| ElabError {
                    pos: e.pos.or(Some(target.pos)),
                    message: e.message,
                })?;
                let fitted = self.fit(e, w);
                envmap.insert(target.name.clone(), fitted);
                touched.push(target.name.clone());
            }
            Stmt::Incr(target) | Stmt::Decr(target) => {
                let w = self.width_of_net(&target.name)?;
                let cur = self.resolve(&target.name)?;
                let one = self.ctx.constant(1, w);
                let e = if matches!(stmt, Stmt::Incr(_)) {
                    self.ctx.add(cur, one)
                } else {
                    self.ctx.sub(cur, one)
                };
                envmap.insert(target.name.clone(), e);
                touched.push(target.name.clone());
            }
            Stmt::If { cond, then_branch, else_branch } => {
                let c = self.elab_bool(cond)?;
                let mut then_env = envmap.clone();
                self.exec_clocked_inner(then_branch, &mut then_env, touched, pos)?;
                let mut else_env = envmap.clone();
                if let Some(e) = else_branch {
                    self.exec_clocked_inner(e, &mut else_env, touched, pos)?;
                }
                for (k, v) in envmap.iter_mut() {
                    let t = then_env[k];
                    let f = else_env[k];
                    if t != f {
                        *v = self.ctx.ite(c, t, f);
                    } else {
                        *v = t;
                    }
                }
            }
            Stmt::Case { subject, arms, default } => {
                let subj = self.elab_expr(subject, None)?;
                let sw = self.ctx.width_of(subj);
                // Build from the default (or hold) upwards, last arm first.
                let mut result_env = match default {
                    Some(d) => {
                        let mut e = envmap.clone();
                        self.exec_clocked_inner(d, &mut e, touched, pos)?;
                        e
                    }
                    None => envmap.clone(),
                };
                for (labels, body) in arms.iter().rev() {
                    let mut arm_env = envmap.clone();
                    self.exec_clocked_inner(body, &mut arm_env, touched, pos)?;
                    let mut hit = self.ctx.bool_const(false);
                    for l in labels {
                        let lv = self.elab_expr(l, Some(sw))?;
                        let lv = self.fit(lv, sw);
                        let eq = self.ctx.eq(subj, lv);
                        hit = self.ctx.or(hit, eq);
                    }
                    for (k, v) in result_env.iter_mut() {
                        let a = arm_env[k];
                        if a != *v {
                            *v = self.ctx.ite(hit, a, *v);
                        }
                    }
                }
                *envmap = result_env;
            }
        }
        Ok(())
    }

    /// Executes an `always_comb` body with blocking semantics: reads see
    /// previous writes from the same block. Every target must be assigned
    /// on every path (no latches).
    fn exec_comb(&mut self, stmt: &Stmt, pos: Pos) -> Result<Vec<(String, ExprRef)>, ElabError> {
        let mut env: BTreeMap<String, Option<ExprRef>> = BTreeMap::new();
        let mut targets = Vec::new();
        collect_blocking_targets(stmt, &mut targets);
        targets.sort();
        targets.dedup();
        for t in &targets {
            env.insert(t.clone(), None);
        }
        self.exec_comb_inner(stmt, &mut env, pos)?;
        let mut out = Vec::new();
        for t in targets {
            match env.remove(&t).flatten() {
                Some(e) => out.push((t, e)),
                None => {
                    return Err(ElabError::at(
                        pos,
                        format!("`{t}` not assigned on all paths in always_comb (latch)"),
                    ))
                }
            }
        }
        Ok(out)
    }

    // Same as `exec_clocked_inner`: `pos` is diagnostic plumbing.
    #[allow(clippy::only_used_in_recursion)]
    fn exec_comb_inner(
        &mut self,
        stmt: &Stmt,
        env: &mut BTreeMap<String, Option<ExprRef>>,
        pos: Pos,
    ) -> Result<(), ElabError> {
        match stmt {
            Stmt::Empty => {}
            Stmt::Block(ss) => {
                for s in ss {
                    self.exec_comb_inner(s, env, pos)?;
                }
            }
            Stmt::Blocking { target, rhs } | Stmt::NonBlocking { target, rhs } => {
                let w = self.width_of_net(&target.name)?;
                // Blocking reads see the overlay: temporarily install
                // resolved values for already-assigned targets.
                let e = self.elab_expr_with_overlay(rhs, Some(w), env)?;
                let fitted = self.fit(e, w);
                env.insert(target.name.clone(), Some(fitted));
            }
            Stmt::If { cond, then_branch, else_branch } => {
                let c = self.elab_bool_with_overlay(cond, env)?;
                let mut then_env = env.clone();
                self.exec_comb_inner(then_branch, &mut then_env, pos)?;
                let mut else_env = env.clone();
                if let Some(e) = else_branch {
                    self.exec_comb_inner(e, &mut else_env, pos)?;
                }
                for (k, v) in env.iter_mut() {
                    *v = match (then_env[k], else_env[k]) {
                        (Some(t), Some(f)) => Some(if t == f { t } else { self.ctx.ite(c, t, f) }),
                        _ => None,
                    };
                }
            }
            Stmt::Case { subject, arms, default } => {
                let subj = self.elab_expr_with_overlay(subject, None, env)?;
                let sw = self.ctx.width_of(subj);
                let mut result_env = match default {
                    Some(d) => {
                        let mut e = env.clone();
                        self.exec_comb_inner(d, &mut e, pos)?;
                        e
                    }
                    None => env.clone(),
                };
                for (labels, body) in arms.iter().rev() {
                    let mut arm_env = env.clone();
                    self.exec_comb_inner(body, &mut arm_env, pos)?;
                    let mut hit = self.ctx.bool_const(false);
                    for l in labels {
                        let lv = self.elab_expr(l, Some(sw))?;
                        let lv = self.fit(lv, sw);
                        let eq = self.ctx.eq(subj, lv);
                        hit = self.ctx.or(hit, eq);
                    }
                    for (k, v) in result_env.iter_mut() {
                        *v = match (arm_env[k], *v) {
                            (Some(a), Some(d)) => {
                                Some(if a == d { a } else { self.ctx.ite(hit, a, d) })
                            }
                            _ => None,
                        };
                    }
                }
                *env = result_env;
            }
            Stmt::Incr(t) | Stmt::Decr(t) => {
                return Err(ElabError::at(
                    t.pos,
                    "increment/decrement not supported in always_comb".to_string(),
                ))
            }
        }
        Ok(())
    }

    fn elab_expr_with_overlay(
        &mut self,
        e: &Expr,
        expected: Option<u32>,
        overlay: &BTreeMap<String, Option<ExprRef>>,
    ) -> Result<ExprRef, ElabError> {
        // Install overlay bindings into `resolved`, elaborate, then restore.
        let mut saved: Vec<(String, Option<ExprRef>)> = Vec::new();
        for (name, val) in overlay {
            if let Some(v) = val {
                saved.push((name.clone(), self.resolved.insert(name.clone(), *v)));
            }
        }
        let result = self.elab_expr(e, expected);
        for (name, prev) in saved {
            match prev {
                Some(p) => {
                    self.resolved.insert(name, p);
                }
                None => {
                    self.resolved.remove(&name);
                }
            }
        }
        result
    }

    fn elab_bool_with_overlay(
        &mut self,
        e: &Expr,
        overlay: &BTreeMap<String, Option<ExprRef>>,
    ) -> Result<ExprRef, ElabError> {
        let x = self.elab_expr_with_overlay(e, None, overlay)?;
        Ok(self.to_bool(x))
    }

    // --- expressions -------------------------------------------------------

    fn fit(&mut self, e: ExprRef, width: u32) -> ExprRef {
        let w = self.ctx.width_of(e);
        if w == width {
            e
        } else if w > width {
            self.ctx.extract(e, width - 1, 0)
        } else {
            self.ctx.zext(e, width)
        }
    }

    // `to_bool` converts the expression, not `self` — the builder context
    // just has to be mutable to hash-cons the reduction node.
    #[allow(clippy::wrong_self_convention)]
    fn to_bool(&mut self, e: ExprRef) -> ExprRef {
        if self.ctx.width_of(e) == 1 {
            e
        } else {
            self.ctx.red_or(e)
        }
    }

    fn elab_bool(&mut self, e: &Expr) -> Result<ExprRef, ElabError> {
        let x = self.elab_expr(e, None)?;
        Ok(self.to_bool(x))
    }

    fn const_eval(&mut self, e: &Expr, expected: Option<u32>) -> Result<BitVecValue, ElabError> {
        let x = self.elab_expr(e, expected.or(Some(32)))?;
        self.ctx
            .const_value(x)
            .cloned()
            .ok_or_else(|| ElabError::new("expression must be constant here".to_string()))
    }

    fn const_eval_u64(&mut self, e: &Expr) -> Result<u64, ElabError> {
        self.const_eval(e, Some(32))?
            .to_u64()
            .ok_or_else(|| ElabError::new("constant too wide".to_string()))
    }

    /// Elaborates an expression; `expected` is a width hint used to size
    /// unsized literals and fill literals.
    fn elab_expr(&mut self, e: &Expr, expected: Option<u32>) -> Result<ExprRef, ElabError> {
        match e {
            Expr::Number { size, base, digits } => self.elab_number(*size, *base, digits, expected),
            Expr::Ident(name) => self.resolve(name),
            Expr::Unary(op, a) => {
                let x = match op {
                    UnaryAstOp::BitNot | UnaryAstOp::Neg => self.elab_expr(a, expected)?,
                    _ => self.elab_expr(a, None)?,
                };
                Ok(match op {
                    UnaryAstOp::BitNot => self.ctx.not(x),
                    UnaryAstOp::Neg => self.ctx.neg(x),
                    UnaryAstOp::LogNot => {
                        let b = self.to_bool(x);
                        self.ctx.not(b)
                    }
                    UnaryAstOp::RedAnd => self.ctx.red_and(x),
                    UnaryAstOp::RedOr => self.ctx.red_or(x),
                    UnaryAstOp::RedXor => self.ctx.red_xor(x),
                })
            }
            Expr::Binary(op, a, b) => self.elab_binary(*op, a, b, expected),
            Expr::Ternary(c, t, f) => {
                let cond = self.elab_bool(c)?;
                let (tt, ff) = self.elab_pair(t, f, expected)?;
                Ok(self.ctx.ite(cond, tt, ff))
            }
            Expr::Index(base, idx) => {
                let x = self.elab_expr(base, None)?;
                let i = self.const_eval_u64(idx)? as u32;
                let w = self.ctx.width_of(x);
                if i >= w {
                    return Err(ElabError::new(format!("bit index {i} out of range (width {w})")));
                }
                Ok(self.ctx.bit(x, i))
            }
            Expr::Range(base, hi, lo) => {
                let x = self.elab_expr(base, None)?;
                let h = self.const_eval_u64(hi)? as u32;
                let l = self.const_eval_u64(lo)? as u32;
                let w = self.ctx.width_of(x);
                if h < l || h >= w {
                    return Err(ElabError::new(format!(
                        "part select [{h}:{l}] out of range (width {w})"
                    )));
                }
                Ok(self.ctx.extract(x, h, l))
            }
            Expr::Concat(parts) => {
                let mut acc: Option<ExprRef> = None;
                let mut width = 0u64;
                for p in parts {
                    let x = self.elab_expr(p, None)?;
                    width += u64::from(self.ctx.width_of(x));
                    check_concat_width(width)?;
                    acc = Some(match acc {
                        None => x,
                        Some(a) => self.ctx.concat(a, x),
                    });
                }
                acc.ok_or_else(|| ElabError::new("empty concatenation".to_string()))
            }
            Expr::Repl(count, inner) => {
                let n = self.const_eval_u64(count)?;
                if n == 0 || n > 4096 {
                    return Err(ElabError::new(format!("bad replication count {n}")));
                }
                let x = self.elab_expr(inner, None)?;
                check_concat_width(n * u64::from(self.ctx.width_of(x)))?;
                let mut acc = x;
                for _ in 1..n {
                    acc = self.ctx.concat(acc, x);
                }
                Ok(acc)
            }
            Expr::Call(name, args) => self.elab_call(name, args, expected),
        }
    }

    fn elab_number(
        &mut self,
        size: Option<u32>,
        base: char,
        digits: &str,
        expected: Option<u32>,
    ) -> Result<ExprRef, ElabError> {
        let value = match base {
            'f' => {
                let w = expected.ok_or_else(|| {
                    ElabError::new("fill literal '0/'1 needs a width from context".to_string())
                })?;
                return Ok(if digits == "1" {
                    let v = BitVecValue::ones(w);
                    self.ctx.value(v)
                } else {
                    self.ctx.constant(0, w)
                });
            }
            'i' | 'd' => {
                let w = size.or(expected).unwrap_or(32);
                BitVecValue::from_decimal_str(digits, w.max(1))
                    .ok_or_else(|| ElabError::new(format!("bad decimal literal `{digits}`")))?
            }
            'b' => {
                let raw = BitVecValue::from_binary_str(digits)
                    .ok_or_else(|| ElabError::new(format!("bad binary literal `{digits}`")))?;
                let w = size.or(expected).unwrap_or(raw.width());
                resize(raw, w)
            }
            'h' => {
                let raw = BitVecValue::from_hex_str(digits)
                    .ok_or_else(|| ElabError::new(format!("bad hex literal `{digits}`")))?;
                let w = size.or(expected).unwrap_or(raw.width());
                resize(raw, w)
            }
            'o' => {
                let mut acc = BitVecValue::zero(64.max(3 * digits.len() as u32));
                for c in digits.chars() {
                    let d = c
                        .to_digit(8)
                        .ok_or_else(|| ElabError::new(format!("bad octal digit `{c}`")))?;
                    let w = acc.width();
                    acc = acc.shl_const(3).or(&BitVecValue::from_u64(d as u64, w));
                }
                let w = size.or(expected).unwrap_or(3 * digits.len() as u32);
                resize(acc, w)
            }
            _ => return Err(ElabError::new(format!("unsupported base `{base}`"))),
        };
        Ok(self.ctx.value(value))
    }

    /// Elaborates two operands and unifies their widths (Verilog max-width
    /// rule, zero extension).
    fn elab_pair(
        &mut self,
        a: &Expr,
        b: &Expr,
        expected: Option<u32>,
    ) -> Result<(ExprRef, ExprRef), ElabError> {
        // Elaborate the non-literal side first so literals get a width hint.
        let (x, y) = if matches!(a, Expr::Number { .. }) && !matches!(b, Expr::Number { .. }) {
            let y = self.elab_expr(b, expected)?;
            let hint = Some(self.ctx.width_of(y)).or(expected);
            let x = self.elab_expr(a, hint)?;
            (x, y)
        } else {
            let x = self.elab_expr(a, expected)?;
            let hint = Some(self.ctx.width_of(x));
            let y = self.elab_expr(b, hint)?;
            (x, y)
        };
        let w = self.ctx.width_of(x).max(self.ctx.width_of(y));
        let x = if self.ctx.width_of(x) < w { self.ctx.zext(x, w) } else { x };
        let y = if self.ctx.width_of(y) < w { self.ctx.zext(y, w) } else { y };
        Ok((x, y))
    }

    fn elab_binary(
        &mut self,
        op: BinaryAstOp,
        a: &Expr,
        b: &Expr,
        expected: Option<u32>,
    ) -> Result<ExprRef, ElabError> {
        match op {
            BinaryAstOp::LogAnd | BinaryAstOp::LogOr => {
                let x = self.elab_bool(a)?;
                let y = self.elab_bool(b)?;
                Ok(match op {
                    BinaryAstOp::LogAnd => self.ctx.and(x, y),
                    _ => self.ctx.or(x, y),
                })
            }
            BinaryAstOp::Shl | BinaryAstOp::Shr => {
                let x = self.elab_expr(a, expected)?;
                let y = self.elab_expr(b, None)?;
                let w = self.ctx.width_of(x);
                let y = self.fit(y, w);
                Ok(match op {
                    BinaryAstOp::Shl => self.ctx.shl(x, y),
                    _ => self.ctx.lshr(x, y),
                })
            }
            BinaryAstOp::Eq
            | BinaryAstOp::Ne
            | BinaryAstOp::Lt
            | BinaryAstOp::Le
            | BinaryAstOp::Gt
            | BinaryAstOp::Ge => {
                let (x, y) = self.elab_pair(a, b, None)?;
                Ok(match op {
                    BinaryAstOp::Eq => self.ctx.eq(x, y),
                    BinaryAstOp::Ne => self.ctx.ne(x, y),
                    BinaryAstOp::Lt => self.ctx.ult(x, y),
                    BinaryAstOp::Le => self.ctx.ule(x, y),
                    BinaryAstOp::Gt => self.ctx.ugt(x, y),
                    _ => self.ctx.uge(x, y),
                })
            }
            _ => {
                let (x, y) = self.elab_pair(a, b, expected)?;
                Ok(match op {
                    BinaryAstOp::Add => self.ctx.add(x, y),
                    BinaryAstOp::Sub => self.ctx.sub(x, y),
                    BinaryAstOp::Mul => self.ctx.mul(x, y),
                    BinaryAstOp::Div => self.ctx.udiv(x, y),
                    BinaryAstOp::Mod => self.ctx.urem(x, y),
                    BinaryAstOp::BitAnd => self.ctx.and(x, y),
                    BinaryAstOp::BitOr => self.ctx.or(x, y),
                    BinaryAstOp::BitXor => self.ctx.xor(x, y),
                    _ => unreachable!("handled above"),
                })
            }
        }
    }

    fn elab_call(
        &mut self,
        name: &str,
        args: &[Expr],
        _expected: Option<u32>,
    ) -> Result<ExprRef, ElabError> {
        let one_arg = |s: &mut Self, args: &[Expr]| -> Result<ExprRef, ElabError> {
            if args.len() != 1 {
                return Err(ElabError::new(format!("{name} takes exactly one argument")));
            }
            s.elab_expr(&args[0], None)
        };
        match name {
            "$countones" => {
                let x = one_arg(self, args)?;
                Ok(self.ctx.count_ones(x, 32))
            }
            "$onehot" => {
                let x = one_arg(self, args)?;
                Ok(self.ctx.onehot(x))
            }
            "$onehot0" => {
                let x = one_arg(self, args)?;
                Ok(self.ctx.onehot0(x))
            }
            "$clog2" => {
                let v = self.const_eval_u64(&args[0])?;
                let bits = if v <= 1 { 0 } else { 64 - (v - 1).leading_zeros() };
                Ok(self.ctx.constant(bits as u64, 32))
            }
            "$unsigned" | "$signed" => one_arg(self, args),
            other => Err(ElabError::new(format!(
                "system function `{other}` is not supported in RTL (SVA-only functions \
                 like $past belong in assertions)"
            ))),
        }
    }
}

/// A concatenation or replication `width` bits wide is an error past
/// [`BitVecValue::MAX_WIDTH`], checked before any of it is built.
fn check_concat_width(width: u64) -> Result<(), ElabError> {
    if width > u64::from(BitVecValue::MAX_WIDTH) {
        return Err(ElabError::new(format!(
            "concatenation is {width} bits wide, more than {}",
            BitVecValue::MAX_WIDTH
        )));
    }
    Ok(())
}

fn resize(v: BitVecValue, width: u32) -> BitVecValue {
    if v.width() == width {
        v
    } else if v.width() > width {
        v.extract(width - 1, 0)
    } else {
        v.zext(width)
    }
}

fn collect_blocking_targets(stmt: &Stmt, out: &mut Vec<String>) {
    match stmt {
        Stmt::Block(ss) => ss.iter().for_each(|s| collect_blocking_targets(s, out)),
        Stmt::If { then_branch, else_branch, .. } => {
            collect_blocking_targets(then_branch, out);
            if let Some(e) = else_branch {
                collect_blocking_targets(e, out);
            }
        }
        Stmt::Case { arms, default, .. } => {
            for (_, s) in arms {
                collect_blocking_targets(s, out);
            }
            if let Some(d) = default {
                collect_blocking_targets(d, out);
            }
        }
        Stmt::Blocking { target, .. } | Stmt::NonBlocking { target, .. } => {
            out.push(target.name.clone())
        }
        Stmt::Incr(t) | Stmt::Decr(t) => out.push(t.name.clone()),
        Stmt::Empty => {}
    }
}
