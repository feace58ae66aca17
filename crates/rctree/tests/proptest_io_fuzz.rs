//! Robustness fuzzing of the tree text parser: arbitrary input must
//! never panic — it either parses to a valid tree or returns a typed
//! error. Inputs are synthesized deterministically from [`SplitMix64`]
//! so the corpus is reproducible offline.

use varbuf_rctree::io::read_tree;
use varbuf_stats::rng::SplitMix64;

#[test]
fn arbitrary_bytes_never_panic() {
    let mut rng = SplitMix64::new(0xF00D);
    for _ in 0..256 {
        let len = rng.below(2048);
        let data: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        // Lossy conversion mirrors what a user feeding a mangled file
        // would produce at the BufRead layer.
        let text = String::from_utf8_lossy(&data).into_owned();
        let _ = read_tree(text.as_bytes());
    }
}

#[test]
fn arbitrary_token_soup_never_panics() {
    const TOKENS: &[&str] = &[
        "source",
        "sink",
        "internal",
        "wire",
        "name",
        "varbuf-tree",
        "v1",
        "-1",
        "0",
        "1",
        "1e308",
        "nan",
        "inf",
        "0.5",
    ];
    let mut rng = SplitMix64::new(0xBEEF);
    for _ in 0..256 {
        let mut text = String::from("varbuf-tree v1\n");
        for _ in 0..rng.below(30) {
            let words: Vec<&str> = (0..rng.below(10))
                .map(|_| TOKENS[rng.below(TOKENS.len())])
                .collect();
            text.push_str(&words.join(" "));
            text.push('\n');
        }
        if let Ok(tree) = read_tree(text.as_bytes()) {
            assert!(tree.validate().is_ok(), "parser returned invalid tree");
        }
    }
}

#[test]
fn mutated_valid_file_never_panics() {
    use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
    use varbuf_rctree::io::write_tree;
    let mut rng = SplitMix64::new(0xFA2E);
    for _ in 0..256 {
        let sinks = 1 + rng.below(19);
        let seed = rng.next_u64() % 20;
        let flip_at = rng.below(4000);
        let flip_to = (rng.next_u64() & 0xFF) as u8;
        let tree = generate_benchmark(&BenchmarkSpec::random("fuzz", sinks, seed));
        let mut buf = Vec::new();
        write_tree(&tree, &mut buf).expect("write");
        if !buf.is_empty() {
            let idx = flip_at % buf.len();
            buf[idx] = flip_to;
        }
        let text = String::from_utf8_lossy(&buf).into_owned();
        if let Ok(t) = read_tree(text.as_bytes()) {
            assert!(t.validate().is_ok());
        }
    }
}

#[test]
fn rewritten_id_fields_never_panic() {
    use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
    use varbuf_rctree::io::write_tree;
    // Node-line id and parent fields rewritten to seeded choices: an
    // earlier sink's id (a sink parent, or a repeated id), a negative,
    // a fraction and an out-of-range integer.
    let mut rng = SplitMix64::new(0x1D5);
    for _ in 0..256 {
        let sinks = 2 + rng.below(18);
        let seed = rng.next_u64() % 20;
        let tree = generate_benchmark(&BenchmarkSpec::random("ids", sinks, seed));
        let mut buf = Vec::new();
        write_tree(&tree, &mut buf).expect("write");
        let mut last_sink: Option<String> = None;
        let mut text = String::new();
        for line in String::from_utf8(buf).expect("utf8").lines() {
            let mut fields: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            let node = matches!(fields[0].as_str(), "internal" | "sink");
            if node && rng.below(4) == 0 {
                let mut choices = vec!["-1".to_owned(), "0.5".to_owned(), "1e10".to_owned()];
                choices.extend(last_sink.clone());
                fields[1 + rng.below(2)] = choices[rng.below(choices.len())].clone();
            }
            if fields[0] == "sink" {
                last_sink = Some(fields[1].clone());
            }
            text.push_str(&fields.join(" "));
            text.push('\n');
        }
        if let Ok(t) = read_tree(text.as_bytes()) {
            assert!(t.validate().is_ok(), "parser returned invalid tree");
        }
    }
}
