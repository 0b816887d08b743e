//! Splitting the committed `repro_output.txt` into per-experiment sections.
//!
//! `repro all` prints each experiment's rendered text followed by a
//! newline, in registry order. A section therefore starts at the
//! experiment's heading line (first line, or after a blank line) and runs
//! to the next experiment's heading; concatenating the sections gives the
//! file back byte for byte.

/// The heading line an experiment's rendered output starts with, as a
/// predicate on that line.
fn is_heading(id: &str, line: &str) -> bool {
    let followed_by = |prefix: &str, next: &[char]| {
        line.strip_prefix(prefix)
            .and_then(|rest| rest.chars().next())
            .is_some_and(|c| next.contains(&c))
    };
    match id {
        "fig3.path" => line.starts_with("S3.3 measurement"),
        "fig5.timing" => line.starts_with("Figures 5.4"),
        "fig7.1" => line.starts_with("Chapter 7 extension"),
        "fig7.scale" => line.starts_with("Chapter 7 scale-out"),
        _ => {
            if let Some(num) = id.strip_prefix("table") {
                followed_by(&format!("Table {num}"), &[' '])
            } else if let Some(num) = id.strip_prefix("fig") {
                followed_by(&format!("Figure {num}"), &[' ', '('])
            } else {
                false
            }
        }
    }
}

/// Splits `text` into one section per id, in `ids` order. Each id's
/// heading must be found after the previous one, at the start of the
/// text or after a blank line, and the sections must tile the text.
///
/// # Errors
///
/// A message naming the first id whose heading is missing or out of
/// order.
pub fn split_sections<'a>(text: &'a str, ids: &[&str]) -> Result<Vec<(String, &'a str)>, String> {
    // Byte offset of every line start that is a legal section start.
    let mut starts: Vec<(usize, &str)> = Vec::new();
    let mut offset = 0;
    let mut prev_blank = true;
    for line in text.split_inclusive('\n') {
        let body = line.trim_end_matches('\n');
        if prev_blank {
            starts.push((offset, body));
        }
        prev_blank = body.is_empty();
        offset += line.len();
    }
    let mut cursor = 0; // index into `starts`
    let mut bounds: Vec<usize> = Vec::with_capacity(ids.len());
    for id in ids {
        let found = starts[cursor..]
            .iter()
            .position(|(_, line)| is_heading(id, line))
            .ok_or_else(|| format!("no `{id}` section heading after the previous section"))?;
        cursor += found;
        bounds.push(starts[cursor].0);
        cursor += 1;
    }
    if bounds.first().is_some_and(|&b| b != 0) {
        return Err(format!("text before the first section (`{}`)", ids[0]));
    }
    let mut out = Vec::with_capacity(ids.len());
    for (k, id) in ids.iter().enumerate() {
        let end = bounds.get(k + 1).copied().unwrap_or(text.len());
        out.push((id.to_string(), &text[bounds[k]..end]));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "Table 6.1 — A\nrow\n\nTable 6.14 — B\nrow\n\n\
        Figure 6.17(a) — C\nx\n\nFigure 6.17(b) — C2\ny\n\n\
        Chapter 7 scale-out — D\nz\n\n";

    #[test]
    fn sections_tile_the_text() {
        let ids = ["table6.1", "table6.14", "fig6.17", "fig7.scale"];
        let parts = split_sections(SAMPLE, &ids).unwrap();
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0], ("table6.1".to_string(), "Table 6.1 — A\nrow\n\n"));
        assert_eq!(parts[1].1, "Table 6.14 — B\nrow\n\n");
        // The (b) half belongs to fig6.17: it is not another id's heading.
        assert_eq!(
            parts[2].1,
            "Figure 6.17(a) — C\nx\n\nFigure 6.17(b) — C2\ny\n\n"
        );
        assert_eq!(parts[3].1, "Chapter 7 scale-out — D\nz\n\n");
        let joined: String = parts.iter().map(|(_, s)| *s).collect();
        assert_eq!(joined, SAMPLE);
    }

    #[test]
    fn prefix_ids_do_not_capture_longer_numbers() {
        // "Table 6.1" must not match the "Table 6.14" heading.
        let err = split_sections("Table 6.14 — B\nrow\n", &["table6.1"]).unwrap_err();
        assert!(err.contains("table6.1"), "{err}");
    }

    #[test]
    fn headings_must_start_a_block_and_keep_order() {
        // A heading-looking line glued to the previous block is body text.
        let glued = "Table 6.1 — A\nTable 6.14 — B\n";
        assert!(split_sections(glued, &["table6.1", "table6.14"]).is_err());
        assert!(split_sections(SAMPLE, &["table6.14", "table6.1"]).is_err());
        assert!(
            split_sections(SAMPLE, &["table6.14"]).is_err(),
            "leading text"
        );
    }

    #[test]
    fn committed_golden_file_splits_into_every_registry_id() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../repro_output.txt"))
                .expect("repro_output.txt");
        let ids: Vec<&str> = hsipc::experiments::all().iter().map(|e| e.id).collect();
        let parts = split_sections(&text, &ids).unwrap();
        assert_eq!(parts.len(), ids.len());
        assert!(parts.iter().all(|(_, s)| s.ends_with("\n\n")));
        assert!(parts.last().unwrap().1.starts_with("Chapter 7 scale-out"));
        let joined: String = parts.iter().map(|(_, s)| *s).collect();
        assert_eq!(joined, text);
    }
}
