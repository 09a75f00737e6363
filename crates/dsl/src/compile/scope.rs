//! Scopes, locals and upvalues: where a name resolves.

use super::{CompileError, Compiler, FuncState, LocalVar, Op, Rk, UpvalDesc, VarRef};

impl Compiler {
    pub(super) fn begin_scope(&mut self) {
        let fs = self.fs();
        let mark = fs.free;
        fs.scopes.push(Vec::new());
        fs.marks.push(mark);
    }

    pub(super) fn end_scope(&mut self) {
        let fs = self.fs();
        fs.scopes.pop();
        fs.free = fs.marks.pop().expect("scope mark");
    }

    pub(super) fn bind(&mut self, name: &str, slot: VarRef) {
        self.fs()
            .scopes
            .last_mut()
            .expect("open scope")
            .push(LocalVar {
                name: name.to_string(),
                slot,
            });
    }

    /// Declares a captured local: a fresh box holding `src`.
    pub(super) fn bind_box(&mut self, name: &str, src: Rk) -> Result<(), CompileError> {
        let limit = u16::MAX as usize;
        let b = Self::pool_idx(self.fs().proto.n_boxes as usize, limit, "captured locals")?;
        self.fs().proto.n_boxes = b + 1;
        self.emit(Op::NewBox { b, src })?;
        self.bind(name, VarRef::Boxed(b));
        Ok(())
    }

    /// Declares the local whose value is already in `slot` (a parameter, a
    /// loop variable): the slot itself, or a box filled from it.
    pub(super) fn bind_slot(&mut self, name: &str, slot: u16) -> Result<(), CompileError> {
        if self.fs().captured.contains(name) {
            return self.bind_box(name, Rk(slot));
        }
        self.bind(name, VarRef::Plain(slot));
        Ok(())
    }

    /// Whether the current position is the main proto's outermost scope,
    /// where `local` declares a global (the interpreter runs the top
    /// level directly in the root scope).
    pub(super) fn at_top_level(&mut self) -> bool {
        self.funcs.len() == 1 && self.fs().scopes.len() == 1
    }

    fn find_local(fs: &FuncState, name: &str) -> Option<VarRef> {
        let innermost_first = fs.scopes.iter().rev().flat_map(|s| s.iter().rev());
        innermost_first
            .filter(|v| v.name == name)
            .map(|v| v.slot)
            .next()
    }

    fn add_upval(&mut self, fi: usize, desc: UpvalDesc, name: &str) -> u16 {
        let fs = &mut self.funcs[fi];
        if let Some(i) = fs.upval_names.iter().position(|n| n == name) {
            return i as u16;
        }
        fs.proto.upvals.push(desc);
        fs.upval_names.push(name.to_string());
        (fs.proto.upvals.len() - 1) as u16
    }

    /// Resolves `name` in function `fi` to an upvalue, chaining through
    /// intermediate functions, or `None` if it is not a captured local of
    /// any enclosing function.
    fn resolve_upval(&mut self, fi: usize, name: &str) -> Option<u16> {
        if fi == 0 {
            return None;
        }
        let parent = fi - 1;
        match Self::find_local(&self.funcs[parent], name) {
            Some(VarRef::Boxed(b)) => Some(self.add_upval(fi, UpvalDesc::ParentBox(b), name)),
            // A plain (unboxed) local cannot be referenced from a nested
            // function: the capture pre-pass boxes every such name.
            Some(_) => None,
            None => {
                let up = self.resolve_upval(parent, name)?;
                Some(self.add_upval(fi, UpvalDesc::ParentUpval(up), name))
            }
        }
    }

    pub(super) fn resolve(&mut self, name: &str) -> VarRef {
        let fi = self.funcs.len() - 1;
        Self::find_local(&self.funcs[fi], name).unwrap_or_else(|| {
            let upval = self.resolve_upval(fi, name);
            upval.map_or(VarRef::Global, VarRef::Upval)
        })
    }
}
