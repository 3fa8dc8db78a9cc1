use crate::deployment::CellTowerId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned when constructing an invalid [`Fingerprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateCellError;

impl fmt::Display for DuplicateCellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fingerprint contains a duplicate cell id")
    }
}

impl std::error::Error for DuplicateCellError {}

/// Inputs at most this long deduplicate by linear membership probes; a
/// modem reports a handful of towers, so hashing every id costs more
/// than scanning the short prefix. Longer (hostile) inputs spill to a
/// hash set, keeping construction O(n).
const LINEAR_DEDUP_MAX: usize = 32;

/// A cellular signature: visible cell IDs in descending order of RSS.
///
/// This is the exact representation the paper matches with its modified
/// Smith–Waterman algorithm (§III-C1): "While the cell tower RSS values may
/// vary, their rank always preserves. Thus we use the modified
/// Smith-Waterman algorithm which focuses on the orders rather than the
/// absolute RSS value". RSS values are deliberately *not* stored.
///
/// # Examples
///
/// ```
/// use busprobe_cellular::{CellTowerId, Fingerprint};
///
/// // The uploaded set of Table I: cells 1..5 ordered by strength.
/// let fp = Fingerprint::new(vec![
///     CellTowerId(1), CellTowerId(2), CellTowerId(3), CellTowerId(4), CellTowerId(5),
/// ]).unwrap();
/// assert_eq!(fp.len(), 5);
/// assert_eq!(fp.rank_of(CellTowerId(3)), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Fingerprint {
    cells: Vec<CellTowerId>,
}

impl Fingerprint {
    /// Builds a fingerprint from an RSS-descending cell-ID list.
    ///
    /// # Errors
    ///
    /// Returns [`DuplicateCellError`] if a cell id appears twice. An empty
    /// fingerprint is permitted (a scan may hear nothing).
    pub fn new(cells: Vec<CellTowerId>) -> Result<Self, DuplicateCellError> {
        // Real scans hear a handful of towers: a linear probe of the
        // prefix beats hashing every id. Oversized (hostile) inputs take
        // the set path to stay O(n).
        if cells.len() <= LINEAR_DEDUP_MAX {
            for (k, c) in cells.iter().enumerate() {
                if cells[..k].contains(c) {
                    return Err(DuplicateCellError);
                }
            }
        } else {
            let mut seen = std::collections::HashSet::with_capacity(cells.len());
            if cells.iter().any(|c| !seen.insert(*c)) {
                return Err(DuplicateCellError);
            }
        }
        Ok(Fingerprint { cells })
    }

    /// The ordered cell IDs, strongest first.
    #[must_use]
    pub fn cells(&self) -> &[CellTowerId] {
        &self.cells
    }

    /// Number of cells in the signature.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the signature is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Rank (0 = strongest) of `cell` within this signature.
    #[must_use]
    pub fn rank_of(&self, cell: CellTowerId) -> Option<usize> {
        self.cells.iter().position(|&c| c == cell)
    }

    /// Whether `cell` appears in this signature.
    #[must_use]
    pub fn contains(&self, cell: CellTowerId) -> bool {
        self.rank_of(cell).is_some()
    }

    /// Number of cell IDs shared with `other`, ignoring order. The paper
    /// uses this as the tie-breaker between equally-scored bus stops
    /// ("the one with a larger number of common cell IDs is selected").
    #[must_use]
    pub fn common_cells(&self, other: &Fingerprint) -> usize {
        self.cells.iter().filter(|c| other.contains(**c)).count()
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (k, c) in self.cells.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<CellTowerId> for Fingerprint {
    /// Collects cell IDs, silently dropping duplicates after their first
    /// occurrence (convenient for building from merged scans).
    fn from_iter<I: IntoIterator<Item = CellTowerId>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut cells: Vec<CellTowerId> =
            Vec::with_capacity(iter.size_hint().0.min(LINEAR_DEDUP_MAX));
        let mut spill: Option<std::collections::HashSet<CellTowerId>> = None;
        for c in iter {
            let duplicate = match &spill {
                Some(seen) => seen.contains(&c),
                None => cells.contains(&c),
            };
            if duplicate {
                continue;
            }
            cells.push(c);
            if let Some(seen) = &mut spill {
                seen.insert(c);
            } else if cells.len() == LINEAR_DEDUP_MAX {
                spill = Some(cells.iter().copied().collect());
            }
        }
        Fingerprint { cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fp(ids: &[u32]) -> Fingerprint {
        Fingerprint::new(ids.iter().map(|&i| CellTowerId(i)).collect()).unwrap()
    }

    #[test]
    fn rejects_duplicates() {
        let dup = Fingerprint::new(vec![CellTowerId(1), CellTowerId(1)]);
        assert_eq!(dup, Err(DuplicateCellError));
    }

    #[test]
    fn empty_fingerprint_is_allowed() {
        let empty = Fingerprint::new(vec![]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn rank_and_contains() {
        let f = fp(&[30, 20, 10]);
        assert_eq!(f.rank_of(CellTowerId(30)), Some(0));
        assert_eq!(f.rank_of(CellTowerId(10)), Some(2));
        assert_eq!(f.rank_of(CellTowerId(99)), None);
        assert!(f.contains(CellTowerId(20)));
        assert!(!f.contains(CellTowerId(99)));
    }

    #[test]
    fn common_cells_ignores_order() {
        let a = fp(&[1, 2, 3, 4, 5]);
        let b = fp(&[5, 4, 9]);
        assert_eq!(a.common_cells(&b), 2);
        assert_eq!(b.common_cells(&a), 2);
    }

    #[test]
    fn from_iterator_dedups() {
        let f: Fingerprint = [1, 2, 1, 3, 2].into_iter().map(CellTowerId).collect();
        assert_eq!(f.cells(), &[CellTowerId(1), CellTowerId(2), CellTowerId(3)]);
    }

    #[test]
    fn display_matches_paper_style() {
        assert_eq!(fp(&[3486, 3893, 3892]).to_string(), "[3486,3893,3892]");
        assert_eq!(fp(&[]).to_string(), "[]");
    }

    #[test]
    fn serde_round_trip() {
        let f = fp(&[7, 8, 9]);
        let back: Fingerprint = serde_json::from_str(&serde_json::to_string(&f).unwrap()).unwrap();
        assert_eq!(f, back);
    }

    proptest! {
        #[test]
        fn prop_common_cells_is_symmetric_and_bounded(
            a in proptest::collection::hash_set(0u32..50, 0..10),
            b in proptest::collection::hash_set(0u32..50, 0..10),
        ) {
            let fa: Fingerprint = a.iter().copied().map(CellTowerId).collect();
            let fb: Fingerprint = b.iter().copied().map(CellTowerId).collect();
            let c = fa.common_cells(&fb);
            prop_assert_eq!(c, fb.common_cells(&fa));
            prop_assert!(c <= fa.len().min(fb.len()));
        }
    }
}
