//! A simple line-oriented text format for routing trees.
//!
//! The format is self-describing and diff-friendly:
//!
//! ```text
//! varbuf-tree v1
//! name r1
//! wire 0.000076 0.118
//! source 0 0.0 8000.0 0.1
//! internal 1 0 4900.2 4733.8 9100.4 1
//! sink 2 1 5100.0 4000.0 933.8 1 17.5 0.0
//! ```
//!
//! Node lines are `kind id [parent] x y [edge_len] [candidate] [extras…]`;
//! ids and parents are non-negative integers, ids must be dense and in
//! increasing order with the source first (the order produced by
//! [`write_tree`]), and a parent must not be a sink.

use crate::geom::Point;
use crate::tree::{NodeId, NodeKind, RoutingTree};
use crate::wire::WireParams;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Error while reading or writing the tree text format.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural or syntactic problem, with the 1-based line number.
    Parse {
        /// Line where the problem was found.
        line: usize,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o failure: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl Error for IoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Writes `tree` in the v1 text format.
///
/// A `&mut` reference can be passed for `w` (e.g. `&mut file`).
///
/// # Errors
///
/// Propagates write failures as [`IoError::Io`].
pub fn write_tree<W: Write>(tree: &RoutingTree, mut w: W) -> Result<(), IoError> {
    writeln!(w, "varbuf-tree v1")?;
    if !tree.name().is_empty() {
        writeln!(w, "name {}", tree.name())?;
    }
    let wire = tree.wire();
    writeln!(w, "wire {} {}", wire.res_per_um, wire.cap_per_um)?;
    for (id, node) in tree.iter() {
        match node.kind {
            NodeKind::Source { driver_resistance } => {
                writeln!(
                    w,
                    "source {} {} {} {}",
                    id.0, node.location.x, node.location.y, driver_resistance
                )?;
            }
            NodeKind::Internal => {
                writeln!(
                    w,
                    "internal {} {} {} {} {} {}",
                    id.0,
                    node.parent.expect("non-root").0,
                    node.location.x,
                    node.location.y,
                    node.edge_length,
                    u8::from(node.is_candidate),
                )?;
            }
            NodeKind::Sink {
                capacitance,
                required_arrival,
            } => {
                writeln!(
                    w,
                    "sink {} {} {} {} {} {} {} {}",
                    id.0,
                    node.parent.expect("non-root").0,
                    node.location.x,
                    node.location.y,
                    node.edge_length,
                    u8::from(node.is_candidate),
                    capacitance,
                    required_arrival,
                )?;
            }
        }
    }
    Ok(())
}

/// Reads a tree written by [`write_tree`].
///
/// A `&mut` reference can be passed for `r` (e.g. `&mut reader`).
///
/// # Errors
///
/// Returns [`IoError::Parse`] with a line number for malformed input and
/// [`IoError::Io`] for read failures. The resulting tree is validated
/// before being returned.
pub fn read_tree<R: BufRead>(r: R) -> Result<RoutingTree, IoError> {
    let mut lines = r.lines().enumerate();

    let (n0, header) = lines
        .next()
        .ok_or_else(|| parse_err(1, "empty input"))?
        .map_parse()?;
    if header.trim() != "varbuf-tree v1" {
        return Err(parse_err(n0 + 1, "missing `varbuf-tree v1` header"));
    }

    let mut name = String::new();
    let mut wire: Option<WireParams> = None;
    let mut tree: Option<RoutingTree> = None;

    for item in lines {
        let (idx, line) = item.map_parse()?;
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut toks = line.split_whitespace();
        let head = toks.next().expect("non-empty line");
        let rest: Vec<&str> = toks.collect();
        match head {
            "name" => name = rest.join(" "),
            "wire" => {
                let [r, c] = take::<2>(&rest, lineno)?;
                let (rv, cv) = (num(r, lineno)?, num(c, lineno)?);
                if !(rv.is_finite() && rv > 0.0 && cv.is_finite() && cv > 0.0) {
                    return Err(parse_err(lineno, "wire parameters must be positive"));
                }
                wire = Some(WireParams {
                    res_per_um: rv,
                    cap_per_um: cv,
                });
            }
            "source" => {
                if tree.is_some() {
                    return Err(parse_err(lineno, "duplicate source line"));
                }
                let [id, x, y, rd] = take::<4>(&rest, lineno)?;
                if node_id(id, lineno)? != NodeId(0) {
                    return Err(parse_err(lineno, "source must have id 0"));
                }
                let w = wire.ok_or_else(|| parse_err(lineno, "wire line must precede nodes"))?;
                let (sx, sy, srd) = (num(x, lineno)?, num(y, lineno)?, num(rd, lineno)?);
                if !sx.is_finite() || !sy.is_finite() {
                    return Err(parse_err(lineno, "source coordinates must be finite"));
                }
                if !srd.is_finite() || srd < 0.0 {
                    return Err(parse_err(
                        lineno,
                        "driver resistance must be finite and non-negative",
                    ));
                }
                let mut t = RoutingTree::new(Point::new(sx, sy), srd, w);
                t.set_name(name.clone());
                tree = Some(t);
            }
            "internal" | "sink" => {
                let t = tree
                    .as_mut()
                    .ok_or_else(|| parse_err(lineno, "node before source line"))?;
                let (id_s, parent_s, x, y, len, cand, extras) = match head {
                    "internal" => {
                        let [a, b, c, d, e, f] = take::<6>(&rest, lineno)?;
                        (a, b, c, d, e, f, &rest[6..])
                    }
                    _ => {
                        let [a, b, c, d, e, f, _, _] = take::<8>(&rest, lineno)?;
                        (a, b, c, d, e, f, &rest[6..])
                    }
                };
                let id = node_id(id_s, lineno)?;
                if id.index() != t.len() {
                    return Err(parse_err(
                        lineno,
                        format!(
                            "ids must be dense and increasing (expected {}, got {})",
                            t.len(),
                            id.0
                        ),
                    ));
                }
                let parent = node_id(parent_s, lineno)?;
                if parent.index() >= t.len() {
                    return Err(parse_err(lineno, "parent id refers to a later node"));
                }
                if matches!(t.node(parent).kind, NodeKind::Sink { .. }) {
                    return Err(parse_err(lineno, format!("parent {parent} is a sink")));
                }
                let (lx, ly) = (num(x, lineno)?, num(y, lineno)?);
                if !lx.is_finite() || !ly.is_finite() {
                    return Err(parse_err(lineno, "node coordinates must be finite"));
                }
                let loc = Point::new(lx, ly);
                let edge_len = num(len, lineno)?;
                if !edge_len.is_finite() || edge_len < 0.0 {
                    return Err(parse_err(
                        lineno,
                        "edge length must be finite and non-negative",
                    ));
                }
                let node_id = if head == "internal" {
                    t.add_internal(parent, loc)
                } else {
                    let cap = num(extras[0], lineno)?;
                    let rat = num(extras[1], lineno)?;
                    if !cap.is_finite() || cap < 0.0 {
                        return Err(parse_err(lineno, "sink capacitance must be non-negative"));
                    }
                    if !rat.is_finite() {
                        return Err(parse_err(lineno, "sink required arrival must be finite"));
                    }
                    t.add_sink(parent, loc, cap, rat)
                };
                t.set_edge_length(node_id, edge_len);
                t.set_candidate(node_id, cand != "0");
            }
            other => {
                return Err(parse_err(lineno, format!("unknown record `{other}`")));
            }
        }
    }

    let tree = tree.ok_or_else(|| parse_err(0, "no source node in input"))?;
    tree.validate()
        .map_err(|e| parse_err(0, format!("structurally invalid tree: {e}")))?;
    Ok(tree)
}

fn parse_err(line: usize, message: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        message: message.into(),
    }
}

fn num(s: &str, line: usize) -> Result<f64, IoError> {
    s.parse::<f64>()
        .map_err(|_| parse_err(line, format!("expected a number, got `{s}`")))
}

fn node_id(s: &str, line: usize) -> Result<NodeId, IoError> {
    s.parse::<u32>().map(NodeId).map_err(|_| {
        parse_err(
            line,
            format!("expected a non-negative integer id, got `{s}`"),
        )
    })
}

fn take<'a, const N: usize>(rest: &[&'a str], line: usize) -> Result<[&'a str; N], IoError> {
    if rest.len() < N {
        return Err(parse_err(
            line,
            format!("expected at least {N} fields, got {}", rest.len()),
        ));
    }
    let mut out = [""; N];
    out.copy_from_slice(&rest[..N]);
    Ok(out)
}

/// Helper to convert the `(index, io::Result<String>)` pairs from
/// `lines().enumerate()` into our error type.
trait MapParse {
    fn map_parse(self) -> Result<(usize, String), IoError>;
}

impl MapParse for (usize, Result<String, std::io::Error>) {
    fn map_parse(self) -> Result<(usize, String), IoError> {
        let (i, r) = self;
        Ok((i, r?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_benchmark, BenchmarkSpec};

    #[test]
    fn roundtrip_small_tree() {
        let mut t = RoutingTree::new(Point::new(0.0, 10.0), 0.1, WireParams::default_65nm());
        t.set_name("toy");
        let mid = t.add_internal(t.root(), Point::new(100.0, 10.0));
        t.add_sink(mid, Point::new(200.0, 10.0), 17.5, -3.0);
        t.add_sink(mid, Point::new(100.0, 90.0), 8.0, 0.0);
        t.set_candidate(mid, false);

        let mut buf = Vec::new();
        write_tree(&t, &mut buf).expect("write");
        let back = read_tree(buf.as_slice()).expect("read");
        assert_eq!(t, back);
    }

    #[test]
    fn roundtrip_generated_benchmark() {
        let t = generate_benchmark(&BenchmarkSpec::random("round", 64, 5));
        let mut buf = Vec::new();
        write_tree(&t, &mut buf).expect("write");
        let back = read_tree(buf.as_slice()).expect("read");
        assert_eq!(t, back);
    }

    #[test]
    fn rejects_missing_header() {
        let e = read_tree("nope\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("header"));
    }

    #[test]
    fn rejects_node_before_source() {
        let text = "varbuf-tree v1\nwire 1 1\ninternal 1 0 0 0 5 1\n";
        let e = read_tree(text.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("before source"));
    }

    #[test]
    fn rejects_sparse_ids() {
        let text = "varbuf-tree v1\nwire 1 1\nsource 0 0 0 0.1\nsink 5 0 1 1 2 1 10 0\n";
        let e = read_tree(text.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("dense"));
    }

    #[test]
    fn rejects_a_sink_parent_and_non_integer_ids() {
        let head = "varbuf-tree v1\nwire 1 1\nsource 0 0 0 0.1\nsink 1 0 9 0 9 1 10 0\n";
        for (line, needle) in [
            ("sink 2 1 9 9 9 1 10 0", "parent n1 is a sink"),
            ("internal 2 1 9 9 9 1", "parent n1 is a sink"),
            ("sink 2 -7 9 9 9 1 10 0", "integer id, got `-7`"),
            ("sink 2 0.5 9 9 9 1 10 0", "integer id, got `0.5`"),
            ("sink 2.9 0 9 9 9 1 10 0", "integer id, got `2.9`"),
            ("sink 2 1e10 9 9 9 1 10 0", "integer id, got `1e10`"),
        ] {
            let e = read_tree(format!("{head}{line}\n").as_bytes()).unwrap_err();
            assert!(
                matches!(e, IoError::Parse { line: 5, .. }) && e.to_string().contains(needle),
                "{line}: {e}"
            );
        }
        let e = read_tree("varbuf-tree v1\nwire 1 1\nsource 0.0 0 0 0.1\n".as_bytes());
        assert!(e.unwrap_err().to_string().contains("integer id"));
    }

    #[test]
    fn rejects_bad_number() {
        let text = "varbuf-tree v1\nwire 1 abc\nsource 0 0 0 0.1\n";
        let e = read_tree(text.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("expected a number"));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text =
            "varbuf-tree v1\n# a comment\n\nwire 1 1\nsource 0 0 0 0.1\nsink 1 0 9 0 9 1 10 0\n";
        let t = read_tree(text.as_bytes()).expect("read");
        assert_eq!(t.sink_count(), 1);
    }
}
