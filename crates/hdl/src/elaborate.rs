//! Elaboration: lowering a parsed [`Module`] to a [`TransitionSystem`].
//!
//! The elaborator resolves parameters, lowers expressions through the
//! shared [`crate::lower`] (its [`Scope`] resolves nets, parameters and
//! `always_comb` overlays; right-hand sides are fitted to assignment
//! targets), symbolically executes procedural blocks, and
//! derives initial-state values by evaluating each register's next-state
//! function under an asserted reset.

use crate::ast::*;
use crate::lexer::Pos;
use crate::lower::{const_u64, const_value, fit, lower_bool, lower_expr, to_bool, Scope};
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
    pub(crate) fn new(message: impl Into<String>) -> Self {
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
                None => const_value(self, value)?,
            };
            self.params.insert(name.clone(), v);
        }
        let items = self.module.items.clone();
        for item in &items {
            if let Item::Param { name, value, pos } = item {
                let v = const_value(self, value).map_err(|e| ElabError::at(*pos, e.message))?;
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
                let hi = const_u64(self, &r.hi)?;
                let lo = const_u64(self, &r.lo)?;
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
                let e = lower_expr(self, &rhs, Some(w))?;
                Ok(fit(self.ctx, e, w))
            }
            NetDef::CombBlock(idx) => {
                let item = self.module.items[idx].clone();
                let Item::AlwaysComb { body, pos } = item else { unreachable!() };
                let assignments = self.exec_comb(&body, pos)?;
                let mut own: Option<ExprRef> = None;
                for (t, e) in assignments {
                    let w = self.width_of_net(&t)?;
                    let fitted = fit(self.ctx, e, w);
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
                let e = lower_expr(self, rhs, Some(w)).map_err(|e| ElabError {
                    pos: e.pos.or(Some(target.pos)),
                    message: e.message,
                })?;
                let fitted = fit(self.ctx, e, w);
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
                let c = lower_bool(self, cond)?;
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
                let subj = lower_expr(self, subject, None)?;
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
                        let lv = lower_expr(self, l, Some(sw))?;
                        let lv = fit(self.ctx, lv, sw);
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
                let fitted = fit(self.ctx, e, w);
                env.insert(target.name.clone(), Some(fitted));
            }
            Stmt::If { cond, then_branch, else_branch } => {
                let c = self.elab_expr_with_overlay(cond, None, env)?;
                let c = to_bool(self.ctx, c);
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
                        let lv = lower_expr(self, l, Some(sw))?;
                        let lv = fit(self.ctx, lv, sw);
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
        let result = lower_expr(self, e, expected);
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
}

impl Scope for Elaborator<'_> {
    type Error = ElabError;

    fn ctx(&mut self) -> &mut Context {
        self.ctx
    }

    fn ident(&mut self, name: &str) -> Result<ExprRef, ElabError> {
        self.resolve(name)
    }

    fn call(&mut self, name: &str, _args: &[Expr]) -> Result<ExprRef, ElabError> {
        Err(ElabError::new(format!(
            "system function `{name}` is not supported in RTL (SVA-only functions \
             like $past belong in assertions)"
        )))
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
