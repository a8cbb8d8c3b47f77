//! Graphviz DOT export for debugging and documentation.

use std::fmt::Write as _;

use crate::manager::BddManager;
use crate::node::Bdd;

impl BddManager {
    /// Renders the shared graph of the given roots as Graphviz DOT text.
    ///
    /// Solid edges are `high` (variable = 1) children, dashed edges are
    /// `low` children; roots are annotated with their handle ids. Nodes
    /// are named by pool id, so the same function may get other names
    /// after other work (a build that creates fewer nodes on the way
    /// renumbers the graph); the graph is the same up to names.
    pub fn to_dot(&self, roots: &[Bdd]) -> String {
        let mut out = String::from("digraph bdd {\n  rankdir=TB;\n");
        out.push_str("  node [shape=circle];\n");
        out.push_str("  f [label=\"0\", shape=box];\n");
        out.push_str("  t [label=\"1\", shape=box];\n");
        let mut scratch = self.scratch.borrow_mut();
        let sc = &mut *scratch;
        sc.begin(self.nodes.len());
        sc.stack.extend(roots.iter().map(|b| b.0));
        for (i, r) in roots.iter().enumerate() {
            let _ = writeln!(out, "  root{i} [label=\"root {i}\", shape=plaintext];");
            let _ = writeln!(out, "  root{i} -> {};", dot_id(*r));
        }
        while let Some(id) = sc.stack.pop() {
            let b = Bdd(id);
            if b.is_const() || !sc.mark(id) {
                continue;
            }
            let n = self.node(b);
            let name = self.var_name(crate::Var(n.var));
            let _ = writeln!(out, "  {} [label=\"{}\"];", dot_id(b), escape(name));
            let _ = writeln!(out, "  {} -> {} [style=dashed];", dot_id(b), dot_id(n.lo));
            let _ = writeln!(out, "  {} -> {};", dot_id(b), dot_id(n.hi));
            sc.stack.push(n.lo.0);
            sc.stack.push(n.hi.0);
        }
        out.push_str("}\n");
        out
    }
}

fn dot_id(b: Bdd) -> String {
    match b {
        Bdd::FALSE => "f".to_string(),
        Bdd::TRUE => "t".to_string(),
        Bdd(id) => format!("n{id}"),
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
