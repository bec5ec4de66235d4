//! Loading market-basket (transaction) files.
//!
//! The other native input format of ROCK: one basket per line, items
//! separated by whitespace or commas, e.g.
//!
//! ```text
//! bread milk butter
//! beer chips
//! bread butter jam
//! ```
//!
//! Item names are interned into a [`Vocabulary`] so results can be
//! rendered back; duplicate items within a basket collapse (baskets are
//! sets), and blank lines are skipped.

use std::path::Path;

use rock_core::data::{Transaction, TransactionSet, Vocabulary};
use rock_core::file::read_text;
use rock_core::{Result, RockError};

/// Parses basket text into a [`TransactionSet`] with an attached
/// vocabulary. `delimiter` of `None` splits on any whitespace; `Some(c)`
/// splits on `c` (fields are trimmed).
///
/// # Errors
/// [`RockError::EmptyDataset`] when no baskets are found.
pub fn parse_baskets(text: &str, delimiter: Option<char>) -> Result<TransactionSet> {
    let mut vocab = Vocabulary::new();
    let mut baskets = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let items: Vec<u32> = match delimiter {
            None => line
                .split_whitespace()
                .map(|name| vocab.intern_basket(name).0)
                .collect(),
            Some(c) => line
                .split(c)
                .map(str::trim)
                .filter(|f| !f.is_empty())
                .map(|name| vocab.intern_basket(name).0)
                .collect(),
        };
        baskets.push(Transaction::new(items));
    }
    if baskets.is_empty() {
        return Err(RockError::EmptyDataset);
    }
    let universe = vocab.len();
    Ok(TransactionSet::with_vocabulary(baskets, universe, vocab))
}

/// Loads a basket file from disk.
///
/// # Errors
/// [`RockError::Io`] on filesystem failure, [`RockError::Csv`] at the
/// line of the first byte that is not UTF-8, plus everything
/// [`parse_baskets`] can return.
pub fn load_baskets(path: &Path, delimiter: Option<char>) -> Result<TransactionSet> {
    let text = read_text(path, |line, message| RockError::Csv { line, message })?;
    parse_baskets(&text, delimiter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_whitespace_separated_items() {
        let ts = parse_baskets("bread milk butter\nbeer chips\n", None).unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.universe(), 5);
        assert_eq!(ts.transaction(0).unwrap().len(), 3);
        let vocab = ts.vocabulary().unwrap();
        assert_eq!(vocab.describe(rock_core::data::ItemId(0)), "bread");
    }

    #[test]
    fn shared_items_share_ids() {
        let ts = parse_baskets("a b\nb c\n", None).unwrap();
        let t0 = ts.transaction(0).unwrap();
        let t1 = ts.transaction(1).unwrap();
        assert_eq!(t0.intersection_len(t1), 1);
    }

    #[test]
    fn comma_delimited_with_spaces() {
        let ts = parse_baskets("bread, milk , butter\nmilk,beer\n", Some(',')).unwrap();
        assert_eq!(ts.universe(), 4);
        assert_eq!(ts.transaction(1).unwrap().len(), 2);
    }

    #[test]
    fn duplicates_collapse_and_blanks_skip() {
        let ts = parse_baskets("a a a b\n\n   \nb\n", None).unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.transaction(0).unwrap().len(), 2);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            parse_baskets("\n  \n", None),
            Err(RockError::EmptyDataset)
        ));
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_baskets(Path::new("/no/such/file.basket"), None),
            Err(RockError::Io { .. })
        ));
    }

    #[test]
    fn a_file_that_is_not_utf8_is_malformed_at_its_line() {
        let dir = std::env::temp_dir().join("rock-baskets-not-utf8");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("b.basket");
        std::fs::write(&path, b"bread milk\nbeer \xfe chips\n").unwrap();
        let err = load_baskets(&path, None).unwrap_err();
        assert!(matches!(err, RockError::Csv { line: 2, .. }), "{err}");
        assert_eq!(err.exit_code(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roundtrip_through_clustering() {
        use rock_core::rock::RockBuilder;
        let mut text = String::new();
        for i in 0..6 {
            text.push_str(&format!("core1 core2 core3 extra{i}\n"));
        }
        for i in 0..6 {
            text.push_str(&format!("grill1 grill2 grill3 other{i}\n"));
        }
        let ts = parse_baskets(&text, None).unwrap();
        let model = RockBuilder::new(2, 0.4).build().fit(&ts).unwrap();
        assert_eq!(model.num_clusters(), 2);
        assert_eq!(model.cluster_sizes(), vec![6, 6]);
    }
}
