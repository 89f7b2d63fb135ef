//! The line-at-a-time capture scanner: each physical line found by a
//! byte-at-a-time search for `\n`, then each carriage-return segment of
//! it by another for `\r`, the screen kept as an owned line. The shipped
//! `mantra_core::collector::preprocess_bytes` jumps from break to break
//! a word at a time and keeps lines as spans into the capture; the
//! `scanner_matches_the_line_at_a_time_reference` property in
//! `tests/prop_parse.rs` holds its effective lines byte-identical to
//! these, and the `ablation_parse` bench times the two.

/// The effective lines of a raw capture from `router`, in capture order,
/// as a terminal would show them: carriage returns replay within a line
/// (a `--More--` segment never prints, a segment at least as long as the
/// screen replaces it, a shorter one overwrites a prefix), each line is
/// trimmed of ASCII whitespace and vertical tabs, and blank lines,
/// telnet banners and `router>`/`router#` prompt echoes drop.
pub fn effective_lines(router: &str, raw: &[u8]) -> Vec<Vec<u8>> {
    let prompt = router.as_bytes();
    let mut lines = Vec::new();
    for physical in raw.split(|&b| b == b'\n') {
        let mut screen: Vec<u8> = Vec::new();
        for seg in physical.split(|&b| b == b'\r') {
            let shown = seg.iter().position(|&b| !is_ws(b)).unwrap_or(seg.len());
            if seg[shown..].starts_with(b"--More--") {
                continue;
            }
            if seg.len() >= screen.len() {
                screen = seg.to_vec();
            } else {
                screen[..seg.len()].copy_from_slice(seg);
            }
        }
        let line = trim(&screen);
        if keep_line(line, prompt) {
            lines.push(line.to_vec());
        }
    }
    lines
}

/// ASCII whitespace, plus the vertical tab terminals show as blank.
fn is_ws(b: u8) -> bool {
    b.is_ascii_whitespace() || b == 0x0b
}

fn trim(mut line: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = line {
        if !is_ws(*first) {
            break;
        }
        line = rest;
    }
    while let [rest @ .., last] = line {
        if !is_ws(*last) {
            break;
        }
        line = rest;
    }
    line
}

fn keep_line(line: &[u8], prompt: &[u8]) -> bool {
    let noise = line.is_empty()
        || line.starts_with(b"Trying ")
        || line.starts_with(b"Connected to")
        || line.starts_with(b"Escape character");
    let echo = line.len() > prompt.len()
        && line.starts_with(prompt)
        && matches!(line[prompt.len()], b'>' | b'#');
    !noise && !echo
}
