//! Tabular categorical data: rows of coded attribute values.
//!
//! A [`CategoricalTable`] stores each cell as `Option<u16>` — a dense code
//! into the attribute's domain, or `None` for a missing value ('?' in UCI
//! files). Tables convert to [`TransactionSet`]s by mapping every present
//! `(attribute, value)` cell to an item, exactly how the ROCK paper handles
//! the Congressional Votes and Mushroom datasets: records that agree on an
//! attribute share an item, missing values simply contribute nothing.

use crate::cast;
use crate::error::{Result, RockError};

use super::dataset::TransactionSet;
use super::schema::Schema;
use super::transaction::Transaction;
use super::vocabulary::Vocabulary;

/// A table of categorical records over a shared [`Schema`].
#[derive(Debug, Clone, Default)]
pub struct CategoricalTable {
    schema: Schema,
    rows: Vec<Vec<Option<u16>>>,
}

impl CategoricalTable {
    /// Creates an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        CategoricalTable {
            schema,
            rows: Vec::new(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of attributes.
    pub fn num_attributes(&self) -> usize {
        self.schema.len()
    }

    /// Returns a row's coded cells.
    pub fn row(&self, i: usize) -> Option<&[Option<u16>]> {
        self.rows.get(i).map(Vec::as_slice)
    }

    /// Iterates all rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Option<u16>]> {
        self.rows.iter().map(Vec::as_slice)
    }

    /// Appends a row of already-coded cells.
    ///
    /// # Errors
    /// Returns [`RockError::LengthMismatch`] if the row width differs from
    /// the schema.
    pub fn push_coded(&mut self, row: Vec<Option<u16>>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(RockError::LengthMismatch {
                left_name: "row",
                left: row.len(),
                right_name: "schema",
                right: self.schema.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Appends a row of textual cells, interning values into the schema.
    /// `missing` cells (e.g. `"?"`) become `None`.
    ///
    /// # Errors
    /// Returns [`RockError::LengthMismatch`] if the row width differs from
    /// the schema, or [`RockError::DomainTooLarge`] if interning a cell
    /// would overflow an attribute's `u16` code space.
    pub fn push_textual(&mut self, cells: &[&str], missing: &str) -> Result<()> {
        if cells.len() != self.schema.len() {
            return Err(RockError::LengthMismatch {
                left_name: "row",
                left: cells.len(),
                right_name: "schema",
                right: self.schema.len(),
            });
        }
        let mut coded: Vec<Option<u16>> = Vec::with_capacity(cells.len());
        for ((_, attr), &cell) in self.schema.iter_mut().zip(cells) {
            coded.push(if cell == missing {
                None
            } else {
                Some(attr.intern(cell)?)
            });
        }
        self.rows.push(coded);
        Ok(())
    }

    /// Fraction of cells that are missing.
    pub fn missing_fraction(&self) -> f64 {
        let total = self.rows.len() * self.schema.len();
        if total == 0 {
            return 0.0;
        }
        let missing: usize = self
            .rows
            .iter()
            .map(|r| r.iter().filter(|c| c.is_none()).count())
            .sum();
        cast::usize_to_f64(missing) / cast::usize_to_f64(total)
    }

    /// Converts the table to a [`TransactionSet`]: each present
    /// `(attribute, value)` cell becomes one item.
    ///
    /// The returned set carries a [`Vocabulary`] so cluster summaries can be
    /// rendered back to attribute/value names.
    pub fn to_transactions(&self) -> TransactionSet {
        let mut vocab = Vocabulary::new();
        // Pre-intern the whole schema in (attr, code) order so item ids are
        // stable regardless of row order.
        let mut base: Vec<u32> = Vec::with_capacity(self.schema.len());
        for (attr, a) in self.schema.iter() {
            for value in a.values() {
                let id = vocab.intern(attr, value);
                let _ = id;
            }
            // Record the running offset of this attribute's first item.
            let _ = attr;
        }
        // Offsets: item id of (attr, code) = offset[attr] + code.
        let mut offset = 0u32;
        base.clear();
        for (_, a) in self.schema.iter() {
            base.push(offset);
            offset += cast::usize_to_u32(a.cardinality());
        }
        let transactions: Vec<Transaction> = self
            .rows
            .iter()
            .map(|row| {
                let items: Vec<u32> = row
                    .iter()
                    .enumerate()
                    .filter_map(|(a, cell)| cell.map(|code| base[a] + u32::from(code)))
                    .collect();
                // Items are strictly increasing by construction (attribute
                // order, one item per attribute).
                Transaction::from_sorted(items)
            })
            .collect();
        TransactionSet::with_vocabulary(transactions, cast::u32_to_usize(offset), vocab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::AttrId;

    fn sample_table() -> CategoricalTable {
        let mut t = CategoricalTable::new(Schema::with_names(["vote1", "vote2"]));
        t.push_textual(&["y", "n"], "?").unwrap();
        t.push_textual(&["y", "?"], "?").unwrap();
        t.push_textual(&["n", "n"], "?").unwrap();
        t
    }

    #[test]
    fn push_textual_interns_values() {
        let t = sample_table();
        assert_eq!(t.len(), 3);
        assert_eq!(t.schema().attribute(AttrId(0)).unwrap().cardinality(), 2);
        assert_eq!(t.schema().attribute(AttrId(1)).unwrap().cardinality(), 1);
        assert_eq!(t.row(1).unwrap(), &[Some(0), None]);
    }

    #[test]
    fn row_width_is_validated() {
        let mut t = CategoricalTable::new(Schema::with_unnamed(2));
        assert!(t.push_textual(&["a"], "?").is_err());
        assert!(t.push_coded(vec![Some(0)]).is_err());
    }

    #[test]
    fn missing_fraction_counts_none_cells() {
        let t = sample_table();
        assert!((t.missing_fraction() - 1.0 / 6.0).abs() < 1e-12);
        let empty = CategoricalTable::new(Schema::with_unnamed(2));
        assert_eq!(empty.missing_fraction(), 0.0);
    }

    #[test]
    fn to_transactions_maps_cells_to_items() {
        let t = sample_table();
        let ts = t.to_transactions();
        assert_eq!(ts.len(), 3);
        // vote1 domain {y=0, n=1} occupies items 0..2; vote2 {n=0} is item 2.
        assert_eq!(ts.transaction(0).unwrap().items(), &[0, 2]);
        assert_eq!(ts.transaction(1).unwrap().items(), &[0]);
        assert_eq!(ts.transaction(2).unwrap().items(), &[1, 2]);
        assert_eq!(ts.universe(), 3);
    }

    #[test]
    fn transactions_share_items_iff_rows_agree() {
        let t = sample_table();
        let ts = t.to_transactions();
        // Rows 0 and 1 agree on vote1=y.
        assert_eq!(
            ts.transaction(0)
                .unwrap()
                .intersection_len(ts.transaction(1).unwrap()),
            1
        );
        // Rows 0 and 2 agree only on vote2=n.
        assert_eq!(
            ts.transaction(0)
                .unwrap()
                .intersection_len(ts.transaction(2).unwrap()),
            1
        );
        // Rows 1 and 2 agree on nothing.
        assert_eq!(
            ts.transaction(1)
                .unwrap()
                .intersection_len(ts.transaction(2).unwrap()),
            0
        );
    }

    #[test]
    fn vocabulary_describes_items() {
        let t = sample_table();
        let ts = t.to_transactions();
        let vocab = ts.vocabulary().unwrap();
        assert_eq!(vocab.describe(crate::data::ItemId(0)), "a0=y");
        assert_eq!(vocab.describe(crate::data::ItemId(2)), "a1=n");
    }
}
