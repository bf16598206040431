//! A textual intent language, parsed into the query AST.
//!
//! The paper's operators write queries as code against a stream API; this
//! module gives them a language instead, so intents can live in config
//! files, CLIs and dashboards:
//!
//! ```text
//! filter(proto == 6) | filter(tcp.flags == 2)
//!   | map(dip) | reduce(dip, count) | where >= 40
//! ```
//!
//! Multi-branch queries separate branches with `;` and end with a merge:
//!
//! ```text
//! filter(proto == 6) | reduce(dip, count) ;
//! filter(proto == 6) | distinct(dip, sip) | reduce(dip, count) ;
//! merge min >= 40
//! ```
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! query     := branch (";" branch)* (";" merge)?
//! branch    := primitive ("|" primitive)*
//! primitive := "filter" "(" pred ")"
//!            | "map" "(" keys ")"
//!            | "distinct" "(" keys ")"
//!            | "reduce" "(" keys "," func ")"
//!            | "where" cmp NUMBER
//! pred      := fieldexpr cmp NUMBER
//! keys      := fieldexpr ("," fieldexpr)*
//! fieldexpr := FIELD ("/" NUMBER)?
//! func      := "count" | "sum" "(" FIELD ")" | "max" "(" FIELD ")"
//! merge     := "merge" ( MERGEOP cmp NUMBER
//!                      | "and" "(" cmp NUMBER "," cmp NUMBER ")" )
//! FIELD     := sip dip sport dport len proto tcp.flags
//! MERGEOP   := min max sum diff
//! cmp       := == != >= <= > <
//! ```

use crate::ast::{
    Branch, CmpOp, FieldExpr, Merge, MergeOp, Predicate, Primitive, Query, ReduceFunc,
};
use newton_packet::Field;
use std::fmt;

/// A parse failure with byte position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub position: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser { src, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { position: self.pos, message: message.into() }
    }

    fn skip_ws(&mut self) {
        let rest = &self.src[self.pos..];
        self.pos += rest.len() - rest.trim_start().len();
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.src[self.pos..].chars().next()
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{token}`")))
        }
    }

    fn word(&mut self) -> String {
        self.skip_ws();
        let start = self.pos;
        for (i, c) in self.src[start..].char_indices() {
            if !(c.is_alphanumeric() || c == '.' || c == '_') {
                self.pos = start + i;
                return self.src[start..self.pos].to_string();
            }
        }
        self.pos = self.src.len();
        self.src[start..].to_string()
    }

    fn number(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        // Hex (0x...) or decimal.
        let rest = &self.src[start..];
        let (digits, radix, skip) =
            if let Some(hex) = rest.strip_prefix("0x") { (hex, 16, 2) } else { (rest, 10, 0) };
        let len = digits
            .char_indices()
            .take_while(|(_, c)| c.is_ascii_hexdigit())
            .map(|(i, c)| i + c.len_utf8())
            .last()
            .unwrap_or(0);
        if len == 0 {
            return Err(self.error("expected a number"));
        }
        let text = &digits[..len];
        self.pos = start + skip + len;
        u64::from_str_radix(text, radix).map_err(|e| self.error(format!("bad number: {e}")))
    }

    fn field(&mut self, name: &str) -> Result<Field, ParseError> {
        match name {
            "sip" => Ok(Field::SrcIp),
            "dip" => Ok(Field::DstIp),
            "sport" => Ok(Field::SrcPort),
            "dport" => Ok(Field::DstPort),
            "len" => Ok(Field::PktLen),
            "proto" => Ok(Field::Proto),
            "tcp.flags" | "flags" => Ok(Field::TcpFlags),
            other => Err(self.error(format!(
                "unknown field `{other}` (expected sip/dip/sport/dport/len/proto/tcp.flags)"
            ))),
        }
    }

    fn field_expr(&mut self) -> Result<FieldExpr, ParseError> {
        let name = self.word();
        if name.is_empty() {
            return Err(self.error("expected a field name"));
        }
        let field = self.field(&name)?;
        if self.eat("/") {
            // Range-check the full parsed value: narrowing first would
            // wrap `/4294967320` to `/24`.
            let prefix = self.number()?;
            if prefix == 0 || prefix > u64::from(field.width()) {
                return Err(self.error(format!(
                    "prefix /{prefix} out of range for {field} (1..={})",
                    field.width()
                )));
            }
            Ok(FieldExpr::prefix(field, prefix as u32))
        } else {
            Ok(FieldExpr::whole(field))
        }
    }

    fn cmp(&mut self) -> Result<CmpOp, ParseError> {
        // Two-char operators first.
        for (tok, op) in [
            ("==", CmpOp::Eq),
            ("!=", CmpOp::Ne),
            (">=", CmpOp::Ge),
            ("<=", CmpOp::Le),
            (">", CmpOp::Gt),
            ("<", CmpOp::Lt),
        ] {
            if self.eat(tok) {
                return Ok(op);
            }
        }
        Err(self.error("expected a comparison (== != >= <= > <)"))
    }

    fn keys(&mut self) -> Result<Vec<FieldExpr>, ParseError> {
        let mut keys = vec![self.field_expr()?];
        loop {
            // `reduce(dip, count)` — after a comma the next word may be the
            // function, not a key; backtrack over the comma if so.
            let save = self.pos;
            if !self.eat(",") {
                break;
            }
            match self.field_expr() {
                Ok(k) => keys.push(k),
                Err(_) => {
                    self.pos = save;
                    break;
                }
            }
        }
        Ok(keys)
    }

    fn reduce_func(&mut self) -> Result<ReduceFunc, ParseError> {
        let name = self.word();
        match name.as_str() {
            "count" => Ok(ReduceFunc::Count),
            "sum" | "max" => {
                self.expect("(")?;
                let fname = self.word();
                let field = self.field(&fname)?;
                self.expect(")")?;
                Ok(if name == "sum" {
                    ReduceFunc::SumField(field)
                } else {
                    ReduceFunc::MaxField(field)
                })
            }
            other => Err(self.error(format!("unknown reduce function `{other}`"))),
        }
    }

    fn primitive(&mut self) -> Result<Primitive, ParseError> {
        let name = self.word();
        match name.as_str() {
            "filter" => {
                self.expect("(")?;
                let expr = self.field_expr()?;
                let op = self.cmp()?;
                let value = self.number()?;
                self.expect(")")?;
                Ok(Primitive::Filter(vec![Predicate { expr, op, value }]))
            }
            "map" => {
                self.expect("(")?;
                let keys = self.keys()?;
                self.expect(")")?;
                Ok(Primitive::Map(keys))
            }
            "distinct" => {
                self.expect("(")?;
                let keys = self.keys()?;
                self.expect(")")?;
                Ok(Primitive::Distinct(keys))
            }
            "reduce" => {
                self.expect("(")?;
                let keys = self.keys()?;
                self.expect(",")?;
                let func = self.reduce_func()?;
                self.expect(")")?;
                Ok(Primitive::Reduce { keys, func })
            }
            "where" => {
                let op = self.cmp()?;
                let value = self.number()?;
                Ok(Primitive::ResultFilter { op, value })
            }
            other => Err(self.error(format!(
                "unknown primitive `{other}` (expected filter/map/distinct/reduce/where)"
            ))),
        }
    }

    fn merge(&mut self) -> Result<Merge, ParseError> {
        let name = self.word();
        match name.as_str() {
            "and" => {
                self.expect("(")?;
                let left = (self.cmp()?, self.number()?);
                self.expect(",")?;
                let right = (self.cmp()?, self.number()?);
                self.expect(")")?;
                Ok(Merge::And { left, right })
            }
            op => {
                let op = match op {
                    "min" => MergeOp::Min,
                    "max" => MergeOp::Max,
                    "sum" => MergeOp::Sum,
                    "diff" => MergeOp::Diff,
                    other => {
                        return Err(
                            self.error(format!("unknown merge `{other}` (min/max/sum/diff/and)"))
                        )
                    }
                };
                let cmp = self.cmp()?;
                let value = self.number()?;
                Ok(Merge::Combine { op, cmp, value })
            }
        }
    }

    fn query(&mut self, name: &str) -> Result<Query, ParseError> {
        let mut branches = Vec::new();
        let mut merge = None;
        loop {
            // A merge instead of a branch?
            let save = self.pos;
            if self.eat("merge") {
                merge = Some(self.merge()?);
                break;
            }
            self.pos = save;

            let mut prims = vec![self.primitive()?];
            while self.eat("|") {
                prims.push(self.primitive()?);
            }
            branches.push(Branch::new(prims));
            if !self.eat(";") {
                break;
            }
            if self.peek().is_none() {
                break; // trailing semicolon
            }
        }
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(self.error("trailing input"));
        }
        if branches.is_empty() {
            return Err(self.error("query has no branches"));
        }
        if merge.is_some() && branches.len() < 2 {
            return Err(self.error("merge requires at least two branches"));
        }
        Ok(Query { name: name.to_string(), branches, merge, epoch_ms: 100 })
    }
}

/// Parse a textual intent into a [`Query`].
///
/// ```
/// use newton_query::parse_query;
/// let q = parse_query(
///     "new_tcp",
///     "filter(proto == 6) | filter(tcp.flags == 2) | map(dip) \
///      | reduce(dip, count) | where >= 40",
/// ).unwrap();
/// assert_eq!(q.primitive_count(), 5);
/// ```
pub fn parse_query(name: &str, src: &str) -> Result<Query, ParseError> {
    Parser::new(src).query(name)
}

/// Render a query back to the textual intent language. For any query built
/// from this grammar, `parse_query(name, &to_text(q))` reproduces `q`
/// exactly (checked by property test).
pub fn to_text(query: &Query) -> String {
    fn field_name(f: Field) -> &'static str {
        match f {
            Field::SrcIp => "sip",
            Field::DstIp => "dip",
            Field::SrcPort => "sport",
            Field::DstPort => "dport",
            Field::PktLen => "len",
            Field::Proto => "proto",
            Field::TcpFlags => "tcp.flags",
        }
    }
    fn expr(e: &FieldExpr) -> String {
        if e.prefix == e.field.width() {
            field_name(e.field).to_string()
        } else {
            format!("{}/{}", field_name(e.field), e.prefix)
        }
    }
    fn keys(ks: &[FieldExpr]) -> String {
        ks.iter().map(expr).collect::<Vec<_>>().join(", ")
    }
    fn prim(p: &Primitive) -> String {
        match p {
            Primitive::Filter(preds) => preds
                .iter()
                .map(|q| format!("filter({} {} {})", expr(&q.expr), q.op, q.value))
                .collect::<Vec<_>>()
                .join(" | "),
            Primitive::Map(ks) => format!("map({})", keys(ks)),
            Primitive::Distinct(ks) => format!("distinct({})", keys(ks)),
            Primitive::Reduce { keys: ks, func } => {
                let f = match func {
                    ReduceFunc::Count => "count".to_string(),
                    ReduceFunc::SumField(f) => format!("sum({})", field_name(*f)),
                    ReduceFunc::MaxField(f) => format!("max({})", field_name(*f)),
                };
                format!("reduce({}, {f})", keys(ks))
            }
            Primitive::ResultFilter { op, value } => format!("where {op} {value}"),
        }
    }
    let mut parts: Vec<String> = query
        .branches
        .iter()
        .map(|b| b.primitives.iter().map(prim).collect::<Vec<_>>().join(" | "))
        .collect();
    if let Some(m) = &query.merge {
        parts.push(match m {
            Merge::Combine { op, cmp, value } => {
                let op = match op {
                    MergeOp::Min => "min",
                    MergeOp::Max => "max",
                    MergeOp::Sum => "sum",
                    MergeOp::Diff => "diff",
                };
                format!("merge {op} {cmp} {value}")
            }
            Merge::And { left, right } => {
                format!("merge and({} {}, {} {})", left.0, left.1, right.0, right.1)
            }
        });
    }
    parts.join(" ;\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn q1_text_equals_catalog() {
        let q = parse_query(
            "q1_new_tcp",
            "filter(proto == 6) | filter(tcp.flags == 2) | map(dip) \
             | reduce(dip, count) | where >= 40",
        )
        .unwrap();
        assert_eq!(q, catalog::q1_new_tcp());
    }

    #[test]
    fn q6_text_equals_catalog() {
        let q = parse_query(
            "q6_syn_flood",
            "filter(proto == 6) | filter(tcp.flags == 2) | map(dip) | reduce(dip, count) ;
             filter(proto == 6) | filter(tcp.flags == 2) | distinct(dip, sip) | reduce(dip, count) ;
             filter(proto == 6) | filter(tcp.flags == 2) | distinct(dip, sport) | reduce(dip, count) ;
             merge min >= 40",
        )
        .unwrap();
        assert_eq!(q, catalog::q6_syn_flood());
    }

    #[test]
    fn q8_text_equals_catalog() {
        let q = parse_query(
            "q8_slowloris",
            "filter(proto == 6) | filter(dport == 80) | map(dip, sip, sport) \
               | distinct(dip, sip, sport) | map(dip) | reduce(dip, count) ;
             filter(proto == 6) | filter(dport == 80) | map(dip, len) | reduce(dip, sum(len)) ;
             merge and(>= 30, <= 6000)",
        )
        .unwrap();
        assert_eq!(q, catalog::q8_slowloris());
    }

    #[test]
    fn prefixes_and_hex_parse() {
        let q = parse_query(
            "drill",
            "filter(dip/24 == 0xC0A801) | map(sip/16) | reduce(sip/16, count) | where >= 20",
        )
        .unwrap();
        assert_eq!(q.primitive_count(), 4);
        match &q.branches[0].primitives[0] {
            Primitive::Filter(p) => {
                assert_eq!(p[0].expr.prefix, 24);
                assert_eq!(p[0].value, 0xC0A801);
            }
            other => panic!("expected filter, got {other:?}"),
        }
    }

    #[test]
    fn max_function_parses() {
        let q = parse_query("m", "map(dip) | reduce(dip, max(len)) | where >= 1000").unwrap();
        match &q.branches[0].primitives[1] {
            Primitive::Reduce { func, .. } => {
                assert_eq!(*func, ReduceFunc::MaxField(newton_packet::Field::PktLen))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_carry_positions_and_messages() {
        let e = parse_query("b", "fitler(proto == 6)").unwrap_err();
        assert!(e.message.contains("unknown primitive"), "{e}");
        let e = parse_query("b", "filter(proot == 6)").unwrap_err();
        assert!(e.message.contains("unknown field"), "{e}");
        let e = parse_query("b", "filter(proto = 6)").unwrap_err();
        assert!(e.message.contains("comparison"), "{e}");
        let e = parse_query("b", "filter(proto == 6) extra").unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
        let e = parse_query("b", "map(dip/0)").unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        let e = parse_query("b", "merge min >= 4").unwrap_err();
        assert!(e.message.contains("no branches"), "{e}");
    }

    #[test]
    fn parsed_queries_compile_and_validate() {
        let q =
            parse_query("t", "filter(proto == 17) | map(dip) | reduce(dip, count) | where >= 50")
                .unwrap();
        assert!(crate::validate::validate(&q).is_empty());
    }

    #[test]
    fn catalog_roundtrips_through_text() {
        for q in catalog::all_queries() {
            let text = super::to_text(&q);
            let back =
                parse_query(&q.name, &text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", q.name));
            assert_eq!(back, q, "{}:\n{text}", q.name);
        }
    }

    #[test]
    fn multi_byte_whitespace_parses_as_whitespace() {
        const SPACES: [char; 3] = ['\u{a0}', '\u{2007}', '\u{3000}'];
        for q in catalog::all_queries() {
            let mut nth = 0;
            let text: String = super::to_text(&q)
                .chars()
                .map(|c| {
                    if c != ' ' {
                        return c;
                    }
                    nth += 1;
                    SPACES[nth % SPACES.len()]
                })
                .collect();
            let back =
                parse_query(&q.name, &text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", q.name));
            assert_eq!(back, q, "{}:\n{text}", q.name);
        }
    }

    #[test]
    fn prefix_lengths_are_range_checked_before_narrowing() {
        let text = |p: &str| format!("map(dip/{p}) | reduce(dip/{p}, count) | where >= 5");
        for bad in ["4294967320", "33"] {
            let e = parse_query("p", &text(bad)).unwrap_err();
            assert!(e.message.contains("out of range"), "/{bad}: {e}");
        }
        let q = parse_query("p", &text("24")).unwrap();
        match &q.branches[0].primitives[0] {
            Primitive::Map(keys) => assert_eq!(keys[0].prefix, 24),
            other => panic!("expected map, got {other:?}"),
        }
    }

    #[test]
    fn merge_with_one_branch_is_rejected() {
        let e = parse_query("b", "map(dip) | reduce(dip, count) ; merge min >= 1").unwrap_err();
        assert!(e.message.contains("at least two"), "{e}");
    }
}
