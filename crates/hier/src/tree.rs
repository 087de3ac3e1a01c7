//! Quadtree over the substrate surface (thesis §3.3).

use std::fmt;
use subsparse_layout::Layout;

/// A square of the hierarchy: `(level, ix, iy)` with
/// `0 <= ix, iy < 2^level`. Level 0 is the whole surface.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Square {
    /// Subdivision level.
    pub level: u8,
    /// Column index.
    pub ix: u16,
    /// Row index.
    pub iy: u16,
}

impl Square {
    /// Creates a square reference.
    pub fn new(level: usize, ix: usize, iy: usize) -> Self {
        Square { level: level as u8, ix: ix as u16, iy: iy as u16 }
    }

    /// Flat index `iy * 2^level + ix` within the level.
    pub fn flat(&self) -> usize {
        (self.iy as usize) << self.level | self.ix as usize
    }

    /// The parent square (level 0 has no parent).
    pub fn parent(&self) -> Option<Square> {
        if self.level == 0 {
            None
        } else {
            Some(Square { level: self.level - 1, ix: self.ix / 2, iy: self.iy / 2 })
        }
    }

    /// The four child squares.
    pub fn children(&self) -> [Square; 4] {
        let (l, x, y) = (self.level + 1, self.ix * 2, self.iy * 2);
        [
            Square { level: l, ix: x, iy: y },
            Square { level: l, ix: x + 1, iy: y },
            Square { level: l, ix: x, iy: y + 1 },
            Square { level: l, ix: x + 1, iy: y + 1 },
        ]
    }

    /// Chebyshev distance to another square on the same level.
    ///
    /// # Panics
    ///
    /// Panics if the levels differ.
    pub fn distance(&self, o: &Square) -> usize {
        assert_eq!(self.level, o.level, "distance requires equal levels");
        let dx = (self.ix as isize - o.ix as isize).unsigned_abs();
        let dy = (self.iy as isize - o.iy as isize).unsigned_abs();
        dx.max(dy)
    }

    /// Whether `o` is *local* to this square: the same square or one of its
    /// eight neighbors (thesis §3.5 / Fig 4-4 "L" squares).
    pub fn is_local(&self, o: &Square) -> bool {
        self.distance(o) <= 1
    }

    /// The ancestor of this square at a coarser `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is finer than this square's level.
    pub fn ancestor(&self, level: usize) -> Square {
        assert!(level <= self.level as usize, "ancestor must be at a coarser level");
        let shift = self.level as usize - level;
        Square { level: level as u8, ix: self.ix >> shift, iy: self.iy >> shift }
    }
}

/// Errors building a [`Quadtree`].
#[derive(Clone, Debug, PartialEq)]
pub enum HierError {
    /// A contact's bounding box crosses a finest-level square boundary;
    /// split the layout first with `Layout::split_to_squares`.
    ContactCrossesSquare {
        /// The offending contact index.
        contact: usize,
    },
    /// The layout has no contacts.
    EmptyLayout,
}

impl fmt::Display for HierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierError::ContactCrossesSquare { contact } => write!(
                f,
                "contact {contact} crosses a finest-level square boundary; \
                 split the layout with Layout::split_to_squares first"
            ),
            HierError::EmptyLayout => write!(f, "layout has no contacts"),
        }
    }
}

impl std::error::Error for HierError {}

/// The multilevel subdivision of the surface with contacts assigned to
/// finest-level squares.
///
/// # Example
///
/// ```
/// use subsparse_hier::Quadtree;
/// use subsparse_layout::generators;
///
/// let layout = generators::regular_grid(128.0, 8, 2.0);
/// let tree = Quadtree::new(&layout, 3)?;                 // 8x8 finest squares
/// assert_eq!(tree.contacts_in(tree.finest(), 0, 0).len(), 1);
/// # Ok::<(), subsparse_hier::HierError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Quadtree {
    levels: usize,
    extent: (f64, f64),
    n_contacts: usize,
    /// `[level][flat square] -> sorted contact indices`
    contacts: Vec<Vec<Vec<u32>>>,
}

impl Quadtree {
    /// Builds a quadtree with `levels` subdivisions (finest level has
    /// `2^levels` squares per side). Each contact is assigned to the finest
    /// square containing its bounding box.
    ///
    /// # Errors
    ///
    /// Returns [`HierError::ContactCrossesSquare`] if a contact straddles a
    /// finest-square boundary and [`HierError::EmptyLayout`] for an empty
    /// layout.
    pub fn new(layout: &Layout, levels: usize) -> Result<Self, HierError> {
        if layout.n_contacts() == 0 {
            return Err(HierError::EmptyLayout);
        }
        let (a, b) = layout.extent();
        let k = 1usize << levels;
        let sx = a / k as f64;
        let sy = b / k as f64;
        let mut finest = vec![Vec::new(); k * k];
        for (ci, c) in layout.contacts().iter().enumerate() {
            let bb = c.bbox();
            let jx0 = ((bb.x0 + 1e-9) / sx).floor() as usize;
            let jx1 = (((bb.x1 - 1e-9) / sx).floor() as usize).min(k - 1);
            let jy0 = ((bb.y0 + 1e-9) / sy).floor() as usize;
            let jy1 = (((bb.y1 - 1e-9) / sy).floor() as usize).min(k - 1);
            if jx0 != jx1 || jy0 != jy1 {
                return Err(HierError::ContactCrossesSquare { contact: ci });
            }
            finest[jy0 * k + jx0].push(ci as u32);
        }
        // aggregate to coarser levels
        let mut contacts = vec![Vec::new(); levels + 1];
        contacts[levels] = finest;
        for l in (0..levels).rev() {
            let kk = 1usize << l;
            let fine = &contacts[l + 1];
            let mut coarse = vec![Vec::new(); kk * kk];
            for iy in 0..kk {
                for ix in 0..kk {
                    let mut acc = Vec::new();
                    for (cx, cy) in [
                        (2 * ix, 2 * iy),
                        (2 * ix + 1, 2 * iy),
                        (2 * ix, 2 * iy + 1),
                        (2 * ix + 1, 2 * iy + 1),
                    ] {
                        acc.extend_from_slice(&fine[cy * (kk * 2) + cx]);
                    }
                    acc.sort_unstable();
                    coarse[iy * kk + ix] = acc;
                }
            }
            contacts[l] = coarse;
        }
        Ok(Quadtree { levels, extent: (a, b), n_contacts: layout.n_contacts(), contacts })
    }

    /// Picks the deepest level such that no finest square holds more than
    /// `cap` contacts (at least 2 levels, at most 12).
    pub fn choose_levels(layout: &Layout, cap: usize) -> usize {
        for levels in 2..=12 {
            if let Ok(t) = Quadtree::new(layout, levels) {
                let k = 1usize << levels;
                let max = (0..k * k).map(|s| t.contacts[levels][s].len()).max().unwrap_or(0);
                if max <= cap {
                    return levels;
                }
            } else {
                // contacts cross boundaries at this resolution; stop finer
                return (levels - 1).max(2);
            }
        }
        12
    }

    /// Number of subdivision levels (the finest level index).
    pub fn finest(&self) -> usize {
        self.levels
    }

    /// Total number of contacts.
    pub fn n_contacts(&self) -> usize {
        self.n_contacts
    }

    /// Surface extent.
    pub fn extent(&self) -> (f64, f64) {
        self.extent
    }

    /// Squares per side at `level`.
    pub fn side(&self, level: usize) -> usize {
        1 << level
    }

    /// Sorted contact indices inside a square.
    pub fn contacts_in(&self, level: usize, ix: usize, iy: usize) -> &[u32] {
        &self.contacts[level][(iy << level) | ix]
    }

    /// Sorted contact indices inside a square (by [`Square`]).
    pub fn contacts_in_square(&self, s: Square) -> &[u32] {
        self.contacts_in(s.level as usize, s.ix as usize, s.iy as usize)
    }

    /// Geometric center of a square.
    pub fn center(&self, s: Square) -> (f64, f64) {
        let k = self.side(s.level as usize) as f64;
        ((s.ix as f64 + 0.5) * self.extent.0 / k, (s.iy as f64 + 0.5) * self.extent.1 / k)
    }

    /// All squares of a level in row-major order.
    pub fn squares(&self, level: usize) -> impl Iterator<Item = Square> + '_ {
        let k = self.side(level);
        (0..k * k).map(move |s| Square::new(level, s % k, s / k))
    }

    /// All squares of a level in quadrant-hierarchical (Morton) order — the
    /// basis ordering used for the thesis's spy plots (§3.7.1).
    pub fn squares_morton(&self, level: usize) -> Vec<Square> {
        let k = self.side(level);
        let mut v: Vec<Square> = self.squares(level).collect();
        v.sort_by_key(|s| morton(s.ix as usize, s.iy as usize));
        let _ = k;
        v
    }

    /// The *local* squares: `s` itself plus its (up to 8) neighbors.
    pub fn local(&self, s: Square) -> Vec<Square> {
        let k = self.side(s.level as usize) as isize;
        let mut out = Vec::with_capacity(9);
        for dy in -1..=1_isize {
            for dx in -1..=1_isize {
                let (x, y) = (s.ix as isize + dx, s.iy as isize + dy);
                if x >= 0 && x < k && y >= 0 && y < k {
                    out.push(Square::new(s.level as usize, x as usize, y as usize));
                }
            }
        }
        out
    }

    /// Every square on levels `s.level..=finest` whose ancestor at
    /// `s`'s level is local to `s`: each local square `t` in
    /// [`local`](Self::local) order, then `t`'s descendants level by level,
    /// row-major within a level.
    ///
    /// These are the destination squares whose basis vectors keep their
    /// interactions with `s`'s in `Gw` (thesis eq. 3.25): the tiles of
    /// the "not-assumed-small" pattern. Interactions with coarser squares
    /// are the same tiles seen from the other side.
    pub fn local_descendants(&self, s: Square) -> impl Iterator<Item = Square> {
        let (l, finest) = (s.level as usize, self.finest());
        self.local(s).into_iter().flat_map(move |t| {
            (l..=finest).flat_map(move |lp| {
                let shift = lp - l;
                let (x0, y0) = ((t.ix as usize) << shift, (t.iy as usize) << shift);
                let k = 1usize << shift;
                (0..k * k).map(move |i| Square::new(lp, x0 + i % k, y0 + i / k))
            })
        })
    }

    /// The *interactive* squares of `s` (thesis Fig 4-4): same-level
    /// squares separated from `s` by at least one square whose parents are
    /// local to `s`'s parent. Empty for levels 0 and 1.
    pub fn interactive(&self, s: Square) -> Vec<Square> {
        if s.level < 2 {
            return Vec::new();
        }
        let parent = s.parent().expect("level >= 2 has a parent");
        let mut out = Vec::with_capacity(27);
        for p in self.local(parent) {
            for c in p.children() {
                if !s.is_local(&c) {
                    out.push(c);
                }
            }
        }
        out.sort();
        out
    }

    /// Local and interactive squares together (the thesis's `P_s` region).
    pub fn local_and_interactive(&self, s: Square) -> Vec<Square> {
        let mut out = self.interactive(s);
        out.extend(self.local(s));
        out.sort();
        out
    }

    /// The combine-solves grouping of §3.5 (Fig 3-5): partitions every
    /// `(s, m)` with `m < count(s)` over the squares `s` of `level` into
    /// groups whose members are solved as one summed vector.
    ///
    /// A group is `(squares, m)`: the squares sharing one phase
    /// `(ix mod k, iy mod k)`, `k = min(spacing, side)`, that hold an
    /// `m`-th vector, in [`squares`](Self::squares) order. Groups come
    /// phase by phase (`ix` phase outer, then `iy` phase), `m` ascending
    /// within a phase. Spacing 0 gives one singleton group per `(s, m)`,
    /// `s` in `squares` order and `m` ascending: one solve per vector, the
    /// reference mode.
    pub fn combine_groups(
        &self,
        level: usize,
        spacing: usize,
        count: impl Fn(Square) -> usize,
    ) -> Vec<(Vec<Square>, usize)> {
        let side = self.side(level);
        let counts: Vec<usize> = self.squares(level).map(count).collect();
        // `side >= 1`, so `min` keeps 0 (no combining) as 0. Computed
        // unconditionally on purpose: a `min` reached only when
        // `spacing != 0` let rustc 1.95's LLVM tag its argument
        // `range(1, 0)`, speculate the call out of that branch with the
        // tag kept, and then fold `spacing == 0` to false — so under
        // `--release` the no-combining path ran the combining loops with
        // `spacing == 0` and never terminated.
        let spacing = spacing.min(side);
        let mut groups = Vec::new();
        if spacing == 0 {
            for s in self.squares(level) {
                groups.extend((0..counts[s.flat()]).map(|m| (vec![s], m)));
            }
            return groups;
        }
        let max = counts.iter().copied().max().unwrap_or(0);
        for pi in 0..spacing {
            for pj in 0..spacing {
                for m in 0..max {
                    let group: Vec<Square> = (pj..side)
                        .step_by(spacing)
                        .flat_map(|iy| (pi..side).step_by(spacing).map(move |ix| (ix, iy)))
                        .map(|(ix, iy)| Square::new(level, ix, iy))
                        .filter(|s| m < counts[s.flat()])
                        .collect();
                    if !group.is_empty() {
                        groups.push((group, m));
                    }
                }
            }
        }
        groups
    }

    /// Contact indices of a whole region (union of squares), sorted.
    pub fn region_contacts(&self, squares: &[Square]) -> Vec<u32> {
        let mut out = Vec::new();
        for s in squares {
            out.extend_from_slice(self.contacts_in_square(*s));
        }
        out.sort_unstable();
        out
    }
}

/// Interleaves bits of `(x, y)` to a Morton code (quadrant-hierarchical
/// ordering).
pub fn morton(x: usize, y: usize) -> u64 {
    fn spread(mut v: u64) -> u64 {
        v &= 0xffff_ffff;
        v = (v | (v << 16)) & 0x0000_ffff_0000_ffff;
        v = (v | (v << 8)) & 0x00ff_00ff_00ff_00ff;
        v = (v | (v << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
        v = (v | (v << 2)) & 0x3333_3333_3333_3333;
        v = (v | (v << 1)) & 0x5555_5555_5555_5555;
        v
    }
    spread(x as u64) | (spread(y as u64) << 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsparse_layout::generators;

    fn tree8() -> Quadtree {
        let layout = generators::regular_grid(128.0, 8, 2.0);
        Quadtree::new(&layout, 3).unwrap()
    }

    #[test]
    fn assignment_one_per_square() {
        let t = tree8();
        for s in t.squares(3) {
            assert_eq!(t.contacts_in_square(s).len(), 1);
        }
        // level 0 holds everything
        assert_eq!(t.contacts_in(0, 0, 0).len(), 64);
        // level 2 squares hold 4 each
        for s in t.squares(2) {
            assert_eq!(t.contacts_in_square(s).len(), 4);
        }
    }

    #[test]
    fn local_counts() {
        let t = tree8();
        assert_eq!(t.local(Square::new(3, 0, 0)).len(), 4); // corner
        assert_eq!(t.local(Square::new(3, 3, 0)).len(), 6); // edge
        assert_eq!(t.local(Square::new(3, 3, 3)).len(), 9); // interior
    }

    #[test]
    fn local_descendants_cover_local_subtrees() {
        let t = tree8();
        // corner square on level 1: itself plus three neighbors, each with
        // 4 + 16 descendants below
        let s = Square::new(1, 0, 0);
        let d: Vec<Square> = t.local_descendants(s).collect();
        assert_eq!(d.len(), 4 * (1 + 4 + 16));
        assert!(d.iter().all(|q| q.level >= 1 && s.is_local(&q.ancestor(1))));
        assert_eq!(d[..2], [s, Square::new(2, 0, 0)]);
        // the finest level has no descendants: just the local squares
        let f = Square::new(3, 3, 3);
        assert_eq!(t.local_descendants(f).collect::<Vec<_>>(), t.local(f));
    }

    #[test]
    fn interactive_properties() {
        let t = tree8();
        let s = Square::new(3, 3, 3);
        let inter = t.interactive(s);
        // interior square: 6x6 parent-neighborhood children minus 3x3 local
        assert_eq!(inter.len(), 27);
        for q in &inter {
            assert!(s.distance(q) >= 2, "interactive squares are separated");
            assert!(s.distance(q) <= 3 || s.parent().unwrap().is_local(&q.parent().unwrap()));
        }
        // symmetric: if d in I_s then s in I_d
        for q in &inter {
            assert!(t.interactive(*q).contains(&s), "interactive relation must be symmetric");
        }
        // levels 0/1 have no interactive squares
        assert!(t.interactive(Square::new(1, 0, 0)).is_empty());
    }

    #[test]
    fn level2_interactive_plus_local_covers_everything() {
        let t = tree8();
        for s in t.squares(2) {
            let mut all = t.local_and_interactive(s);
            all.dedup();
            assert_eq!(all.len(), 16, "level 2 must cover the whole grid for {s:?}");
        }
    }

    #[test]
    fn region_contacts_sorted_unique() {
        let t = tree8();
        let s = Square::new(2, 1, 1);
        let region = t.local_and_interactive(s);
        let c = t.region_contacts(&region);
        assert_eq!(c.len(), 64);
        assert!(c.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn rejects_crossing_contacts() {
        let mut layout = subsparse_layout::Layout::new(8.0, 8.0);
        layout
            .push(subsparse_layout::Contact::rect(subsparse_layout::Rect::new(1.0, 1.0, 7.0, 2.0)));
        assert_eq!(
            Quadtree::new(&layout, 1).unwrap_err(),
            HierError::ContactCrossesSquare { contact: 0 }
        );
    }

    #[test]
    fn choose_levels_caps_occupancy() {
        let layout = generators::regular_grid(128.0, 16, 2.0); // 256 contacts
        let levels = Quadtree::choose_levels(&layout, 4);
        let t = Quadtree::new(&layout, levels).unwrap();
        let max = t.squares(levels).map(|s| t.contacts_in_square(s).len()).max().unwrap();
        assert!(max <= 4);
    }

    #[test]
    fn morton_order_is_quadrant_hierarchical() {
        let t = tree8();
        let order = t.squares_morton(1);
        assert_eq!(order[0], Square::new(1, 0, 0));
        assert_eq!(order.len(), 4);
        // first four level-2 squares in Morton order share the (0,0) parent
        let o2 = t.squares_morton(2);
        for s in &o2[..4] {
            assert_eq!(s.parent().unwrap(), Square::new(1, 0, 0));
        }
    }

    /// A 16x16-square tree (level 4), every square holding one contact.
    fn tree16() -> Quadtree {
        let layout = generators::regular_grid(128.0, 16, 2.0);
        Quadtree::new(&layout, 4).unwrap()
    }

    /// A deterministic uneven vector count per square, zero on some.
    fn uneven(s: Square) -> usize {
        (s.ix as usize * 7 + s.iy as usize * 3) % 4
    }

    #[test]
    fn combine_groups_partition_by_phase() {
        let t = tree16();
        for level in 0..=4 {
            let side = t.side(level);
            for spacing in [1, 2, 3, 4, 6, 40] {
                let groups = t.combine_groups(level, spacing, uneven);
                let k = spacing.min(side);
                let mut seen = vec![vec![0usize; 4]; side * side];
                for (group, m) in &groups {
                    assert!(!group.is_empty());
                    let phase = (group[0].ix as usize % k, group[0].iy as usize % k);
                    for s in group {
                        assert_eq!(s.level as usize, level);
                        assert!(*m < uneven(*s), "{s:?} has no vector {m}");
                        assert_eq!((s.ix as usize % k, s.iy as usize % k), phase);
                        seen[s.flat()][*m] += 1;
                    }
                    // members in `squares` order
                    assert!(group.windows(2).all(|w| w[0].flat() < w[1].flat()));
                }
                for s in t.squares(level) {
                    for m in 0..4 {
                        let want = usize::from(m < uneven(s));
                        assert_eq!(seen[s.flat()][m], want, "{s:?} m {m} spacing {spacing}");
                    }
                }
            }
        }
    }

    #[test]
    fn combine_groups_spacing_zero_is_singletons_in_order() {
        let t = tree16();
        let groups = t.combine_groups(3, 0, uneven);
        let want: Vec<(Vec<Square>, usize)> =
            t.squares(3).flat_map(|s| (0..uneven(s)).map(move |m| (vec![s], m))).collect();
        assert_eq!(groups, want);
    }

    /// Grouping children by (parent phase mod `k`, child index) is the
    /// grouping by child phase mod `2k`, because
    /// `ix mod 2k = 2 (pix mod k) + cx`; clamping holds too, as
    /// `min(2k, 2 side_p) = 2 min(k, side_p)`.
    #[test]
    fn combine_groups_of_children_match_parent_phase_grouping() {
        let t = tree16();
        // child level 4 under parent side 8, and child level 2 under
        // parent side 2 (parent spacing 3 clamps to 2)
        for child_level in [4, 2] {
            let parent_side = t.side(child_level - 1);
            let k = 3usize.min(parent_side);
            let mut by_parent: Vec<Vec<Square>> = Vec::new();
            for pi in 0..k {
                for pj in 0..k {
                    for child in 0..4 {
                        let group: Vec<Square> = t
                            .squares(child_level)
                            .filter(|s| {
                                let p = s.parent().unwrap();
                                (p.ix as usize % k, p.iy as usize % k) == (pi, pj)
                                    && (s.iy as usize & 1) << 1 | (s.ix as usize & 1) == child
                            })
                            .collect();
                        if !group.is_empty() {
                            by_parent.push(group);
                        }
                    }
                }
            }
            let mut by_child: Vec<Vec<Square>> =
                t.combine_groups(child_level, 2 * 3, |_| 1).into_iter().map(|(g, _)| g).collect();
            by_parent.sort();
            by_child.sort();
            assert_eq!(by_parent, by_child, "child level {child_level}");
        }
    }

    #[test]
    fn ancestor() {
        let s = Square::new(4, 13, 6);
        assert_eq!(s.ancestor(2), Square::new(2, 3, 1));
        assert_eq!(s.ancestor(4), s);
    }
}
