//! Synthetic stand-in for the UCI 1984 Congressional Voting Records
//! dataset (435 × 16 boolean votes, 267 democrats / 168 republicans,
//! ~5.6% missing values).
//!
//! The structure ROCK exploits in the real data is that most issues are
//! *party-line*: democrats vote one way with high probability and
//! republicans the other, while a few issues are bipartisan. The generator
//! reproduces exactly that: a configurable number of polarized issues
//! (alternating direction) plus bipartisan coin-flip issues, with missing
//! values sprinkled uniformly. See `DESIGN.md` *Substitutions*.

use rock_core::data::{CategoricalTable, Schema};
use rock_core::sampling::seeded_rng;

/// Party of a synthetic representative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Party {
    /// Majority class in the 1984 house (267 members).
    Democrat,
    /// Minority class (168 members).
    Republican,
}

impl Party {
    /// Label string, matching the UCI file.
    pub fn label(&self) -> &'static str {
        match self {
            Party::Democrat => "democrat",
            Party::Republican => "republican",
        }
    }
}

/// Configuration of the synthetic votes generator.
#[derive(Debug, Clone)]
pub struct VotesModel {
    /// Number of democrats (UCI: 267).
    pub democrats: usize,
    /// Number of republicans (UCI: 168).
    pub republicans: usize,
    /// Total issues (UCI: 16).
    pub issues: usize,
    /// How many issues are party-polarized (rest are 50/50 coin flips).
    pub partisan_issues: usize,
    /// Probability a member votes with their party on a polarized issue.
    pub party_line: f64,
    /// Probability a vote is missing (`?`).
    pub missing: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for VotesModel {
    /// Matches the UCI dataset's shape: 435 members, 16 issues, 12 of them
    /// polarized at 0.85 party-line probability, 5.6% missing.
    fn default() -> Self {
        VotesModel {
            democrats: 267,
            republicans: 168,
            issues: 16,
            partisan_issues: 12,
            party_line: 0.85,
            missing: 0.056,
            seed: 0,
        }
    }
}

impl VotesModel {
    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates `(table, party labels)`. Rows are interleaved
    /// (shuffled) so that clustering cannot exploit input order.
    pub fn generate(&self) -> (CategoricalTable, Vec<Party>) {
        assert!(self.partisan_issues <= self.issues);
        let mut rng = seeded_rng(self.seed);
        let mut members: Vec<Party> = std::iter::repeat_n(Party::Democrat, self.democrats)
            .chain(std::iter::repeat_n(Party::Republican, self.republicans))
            .collect();
        // Fisher–Yates shuffle for row order.
        for i in (1..members.len()).rev() {
            let j = rng.gen_range(0..=i);
            members.swap(i, j);
        }

        let names: Vec<String> = (0..self.issues).map(|i| format!("issue{i}")).collect();
        let mut table = CategoricalTable::new(Schema::with_names(names));
        for &party in &members {
            let mut cells: Vec<String> = Vec::with_capacity(self.issues);
            for issue in 0..self.issues {
                if rng.gen::<f64>() < self.missing {
                    cells.push("?".to_owned());
                    continue;
                }
                let yes_prob = if issue < self.partisan_issues {
                    // Alternate which party favors the issue, so neither
                    // party is simply "votes yes on everything".
                    let dem_favored = issue % 2 == 0;
                    match (party, dem_favored) {
                        (Party::Democrat, true) | (Party::Republican, false) => self.party_line,
                        _ => 1.0 - self.party_line,
                    }
                } else {
                    0.5
                };
                cells.push(
                    if rng.gen::<f64>() < yes_prob {
                        "y"
                    } else {
                        "n"
                    }
                    .to_owned(),
                );
            }
            let refs: Vec<&str> = cells.iter().map(String::as_str).collect();
            table
                .push_textual(&refs, "?")
                .expect("row width matches schema");
        }
        (table, members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_uci_shape() {
        let (table, parties) = VotesModel::default().seed(1).generate();
        assert_eq!(table.len(), 435);
        assert_eq!(table.num_attributes(), 16);
        assert_eq!(
            parties.iter().filter(|p| **p == Party::Democrat).count(),
            267
        );
        // Missing fraction close to configured.
        let mf = table.missing_fraction();
        assert!((mf - 0.056).abs() < 0.02, "missing fraction {mf}");
    }

    #[test]
    fn partisan_issues_polarize() {
        let (table, parties) = VotesModel::default().seed(2).generate();
        // On issue 0 (dem-favored), democrats should vote yes far more
        // often than republicans.
        let yes_code = table
            .schema()
            .attribute(rock_core::data::AttrId(0))
            .unwrap();
        let y = yes_code.code("y").unwrap();
        let mut dem_yes = 0f64;
        let mut dem_tot = 0f64;
        let mut rep_yes = 0f64;
        let mut rep_tot = 0f64;
        for (row, party) in table.rows().zip(&parties) {
            if let Some(v) = row[0] {
                match party {
                    Party::Democrat => {
                        dem_tot += 1.0;
                        if v == y {
                            dem_yes += 1.0;
                        }
                    }
                    Party::Republican => {
                        rep_tot += 1.0;
                        if v == y {
                            rep_yes += 1.0;
                        }
                    }
                }
            }
        }
        assert!(dem_yes / dem_tot > 0.75);
        assert!(rep_yes / rep_tot < 0.25);
    }

    #[test]
    fn bipartisan_issues_are_balanced() {
        let model = VotesModel {
            partisan_issues: 12,
            ..VotesModel::default()
        }
        .seed(3);
        let (table, _) = model.generate();
        // Issue 15 is bipartisan: overall yes rate near 0.5.
        let attr = table
            .schema()
            .attribute(rock_core::data::AttrId(15))
            .unwrap();
        let y = attr.code("y").unwrap();
        let mut yes = 0f64;
        let mut tot = 0f64;
        for row in table.rows() {
            if let Some(v) = row[15] {
                tot += 1.0;
                if v == y {
                    yes += 1.0;
                }
            }
        }
        assert!((yes / tot - 0.5).abs() < 0.08, "rate {}", yes / tot);
    }

    #[test]
    fn rows_are_shuffled() {
        let (_, parties) = VotesModel::default().seed(4).generate();
        // The first 20 rows should not be all democrats (they would be
        // without shuffling).
        let dems_up_front = parties[..20]
            .iter()
            .filter(|p| **p == Party::Democrat)
            .count();
        assert!(dems_up_front < 20);
    }

    #[test]
    fn deterministic_by_seed() {
        let (a, pa) = VotesModel::default().seed(7).generate();
        let (b, pb) = VotesModel::default().seed(7).generate();
        assert_eq!(pa, pb);
        assert_eq!(a.row(0), b.row(0));
        let (_, pc) = VotesModel::default().seed(8).generate();
        assert_ne!(pa, pc);
    }

    #[test]
    fn party_labels() {
        assert_eq!(Party::Democrat.label(), "democrat");
        assert_eq!(Party::Republican.label(), "republican");
    }
}
