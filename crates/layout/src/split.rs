//! Split-layout bookkeeping for oversized contacts.
//!
//! The multilevel extraction algorithms require every contact to fit in a
//! finest-level quadtree square; long bars and rings must be split first
//! (thesis §3.2). Physically, though, the pieces of one contact remain a
//! single equipotential conductor: a voltage on the original contact is
//! the *same* voltage on all of its pieces, and its current is the *sum*
//! of its pieces' currents. [`SplitLayout`] keeps the mapping and does
//! both conversions, so callers can keep working with the original
//! contact indices. (Handling large contacts without the piece count
//! growing is the first item of the thesis's future work, §5.2.)

use crate::Layout;

/// A layout split to quadtree squares along with the piece mapping back
/// to the original contacts.
///
/// # Example
///
/// ```
/// use subsparse_layout::{Contact, Layout, Rect, SplitLayout};
///
/// let mut original = Layout::new(8.0, 8.0);
/// original.push(Contact::rect(Rect::new(1.0, 1.0, 7.0, 2.0))); // long bar
/// let split = SplitLayout::new(&original, 1);
/// assert_eq!(split.layout().n_contacts(), 2); // bar split in two pieces
///
/// // 1 V on the original contact = 1 V on each piece
/// let v = split.expand_voltages(&[1.0]);
/// assert_eq!(v, vec![1.0, 1.0]);
/// // piece currents sum back to the original contact
/// let i = split.reduce_currents(&[0.25, 0.5]);
/// assert_eq!(i, vec![0.75]);
/// ```
#[derive(Clone, Debug)]
pub struct SplitLayout {
    original_n: usize,
    layout: Layout,
    /// original contact per piece
    owner: Vec<u32>,
}

impl SplitLayout {
    /// Splits `original` at the square boundaries of a depth-`levels`
    /// quadtree.
    pub fn new(original: &Layout, levels: u32) -> Self {
        let (layout, pieces) = original.split_to_squares(levels);
        let mut owner = vec![0u32; layout.n_contacts()];
        for (ci, ps) in pieces.iter().enumerate() {
            for &p in ps {
                owner[p] = ci as u32;
            }
        }
        SplitLayout { original_n: original.n_contacts(), layout, owner }
    }

    /// The split layout (what the extraction algorithms and solvers see).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Number of original contacts.
    pub fn original_n(&self) -> usize {
        self.original_n
    }

    /// Number of pieces.
    pub fn n_pieces(&self) -> usize {
        self.layout.n_contacts()
    }

    /// Copies original-contact voltages onto every piece (a contact is an
    /// equipotential conductor).
    ///
    /// # Panics
    ///
    /// Panics if `voltages.len() != original_n()`.
    pub fn expand_voltages(&self, voltages: &[f64]) -> Vec<f64> {
        assert_eq!(voltages.len(), self.original_n, "voltage vector length mismatch");
        self.owner.iter().map(|&o| voltages[o as usize]).collect()
    }

    /// Sums piece currents back onto the original contacts.
    ///
    /// # Panics
    ///
    /// Panics if `currents.len() != n_pieces()`.
    pub fn reduce_currents(&self, currents: &[f64]) -> Vec<f64> {
        assert_eq!(currents.len(), self.n_pieces(), "current vector length mismatch");
        let mut out = vec![0.0; self.original_n];
        for (p, &i) in currents.iter().enumerate() {
            out[self.owner[p] as usize] += i;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Contact, Rect};

    fn layout_with_bar_and_square() -> Layout {
        let mut l = Layout::new(16.0, 16.0);
        l.push(Contact::rect(Rect::new(1.0, 1.0, 15.0, 2.0))); // bar, 4 pieces at levels 2
        l.push(Contact::rect(Rect::new(1.0, 5.0, 3.0, 7.0))); // stays whole
        l
    }

    #[test]
    fn mapping_roundtrip() {
        let original = layout_with_bar_and_square();
        let split = SplitLayout::new(&original, 2);
        assert_eq!(split.original_n(), 2);
        assert_eq!(split.n_pieces(), 5);
        // the owner map inverts the split's piece lists
        let (_, pieces) = original.split_to_squares(2);
        let bar: Vec<usize> = (0..split.n_pieces()).filter(|&p| split.owner[p] == 0).collect();
        assert_eq!(bar, pieces[0]);
        assert_eq!(bar.len(), 4);
        // total areas preserved per contact
        let bar_area: f64 = bar.iter().map(|&p| split.layout().contacts()[p].area()).sum();
        assert!((bar_area - original.contacts()[0].area()).abs() < 1e-9);
    }

    #[test]
    fn expand_and_reduce_are_adjoint() {
        // reduce(G expand(v)) corresponds to the Galerkin-reduced operator;
        // in particular sum_pieces expand(v)[p] * w[p] = sum_contacts
        // v[c] * reduce(w)[c]
        let original = layout_with_bar_and_square();
        let split = SplitLayout::new(&original, 2);
        let v = [2.0, -1.0];
        let w: Vec<f64> = (0..split.n_pieces()).map(|p| 0.5 + p as f64).collect();
        let lhs: f64 = split.expand_voltages(&v).iter().zip(&w).map(|(a, b)| a * b).sum();
        let rhs: f64 = v.iter().zip(split.reduce_currents(&w)).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn unsplit_layout_is_identity() {
        let mut l = Layout::new(16.0, 16.0);
        l.push(Contact::rect(Rect::new(1.0, 1.0, 3.0, 3.0)));
        let split = SplitLayout::new(&l, 2);
        assert_eq!(split.n_pieces(), 1);
        assert_eq!(split.expand_voltages(&[3.0]), vec![3.0]);
        assert_eq!(split.reduce_currents(&[4.0]), vec![4.0]);
    }
}
