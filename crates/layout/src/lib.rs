//! Contact-layout geometry for substrate coupling extraction.
//!
//! A [`Layout`] is a set of [`Contact`]s (unions of axis-aligned rectangles)
//! on the top surface of a substrate of a given extent. The thesis's
//! evaluation layouts — regular grids, irregularly placed same-size
//! contacts, alternating-size grids, mixed squares/bars/rings, and the
//! 10240-contact example — are reproduced by the generators in
//! [`generators`].
//!
//! # Example
//!
//! ```
//! use subsparse_layout::{generators, Layout};
//!
//! let layout: Layout = generators::regular_grid(128.0, 8, 2.0);
//! assert_eq!(layout.n_contacts(), 64);
//! layout.validate().unwrap();
//! ```

pub mod generators;
pub mod split;

pub use split::SplitLayout;

use std::fmt;

/// An axis-aligned rectangle `[x0, x1] x [y0, y1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub x0: f64,
    /// Bottom edge.
    pub y0: f64,
    /// Right edge.
    pub x1: f64,
    /// Top edge.
    pub y1: f64,
}

impl Rect {
    /// Creates a rectangle; coordinates are normalized so `x0 <= x1`,
    /// `y0 <= y1`.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Rect { x0: x0.min(x1), y0: y0.min(y1), x1: x0.max(x1), y1: y0.max(y1) }
    }

    /// Width (`x1 - x0`).
    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    /// Height (`y1 - y0`).
    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }

    /// Area.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Whether the point lies in the half-open box `[x0, x1) x [y0, y1)`.
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// Whether this rectangle overlaps another with positive area.
    pub fn intersects(&self, o: &Rect) -> bool {
        self.x0 < o.x1 && o.x0 < self.x1 && self.y0 < o.y1 && o.y0 < self.y1
    }
}

/// A perfectly conducting surface contact: a union of rectangles.
///
/// Most contacts are single rectangles; rings and L-shapes use several.
#[derive(Clone, Debug, PartialEq)]
pub struct Contact {
    rects: Vec<Rect>,
}

impl Contact {
    /// A single-rectangle contact.
    pub fn rect(r: Rect) -> Self {
        Contact { rects: vec![r] }
    }

    /// A multi-rectangle contact.
    ///
    /// # Panics
    ///
    /// Panics if `rects` is empty.
    pub fn new(rects: Vec<Rect>) -> Self {
        assert!(!rects.is_empty(), "contact must have at least one rectangle");
        Contact { rects }
    }

    /// The constituent rectangles.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Total area (rectangles are assumed disjoint).
    pub fn area(&self) -> f64 {
        self.rects.iter().map(Rect::area).sum()
    }

    /// Area-weighted centroid.
    pub fn centroid(&self) -> (f64, f64) {
        let mut ax = 0.0;
        let mut ay = 0.0;
        let mut a = 0.0;
        for r in &self.rects {
            let ra = r.area();
            ax += ra * 0.5 * (r.x0 + r.x1);
            ay += ra * 0.5 * (r.y0 + r.y1);
            a += ra;
        }
        (ax / a, ay / a)
    }

    /// Bounding box of all rectangles.
    pub fn bbox(&self) -> Rect {
        let mut b = self.rects[0];
        for r in &self.rects[1..] {
            b.x0 = b.x0.min(r.x0);
            b.y0 = b.y0.min(r.y0);
            b.x1 = b.x1.max(r.x1);
            b.y1 = b.y1.max(r.y1);
        }
        b
    }

    /// Whether the point is inside any rectangle (half-open convention).
    pub fn contains(&self, x: f64, y: f64) -> bool {
        self.rects.iter().any(|r| r.contains(x, y))
    }
}

/// Errors produced by [`Layout::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum LayoutError {
    /// A contact rectangle extends outside the substrate surface.
    OutOfBounds {
        /// Index of the offending contact.
        contact: usize,
    },
    /// A contact has zero or negative area.
    EmptyContact {
        /// Index of the offending contact.
        contact: usize,
    },
    /// Two contacts overlap.
    Overlap {
        /// Index of the first contact.
        first: usize,
        /// Index of the second contact.
        second: usize,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::OutOfBounds { contact } => {
                write!(f, "contact {contact} extends outside the substrate surface")
            }
            LayoutError::EmptyContact { contact } => {
                write!(f, "contact {contact} has zero area")
            }
            LayoutError::Overlap { first, second } => {
                write!(f, "contacts {first} and {second} overlap")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// A set of contacts on a rectangular substrate surface `[0, a] x [0, b]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Layout {
    a: f64,
    b: f64,
    contacts: Vec<Contact>,
}

impl Layout {
    /// Creates an empty layout on an `a x b` surface.
    ///
    /// # Panics
    ///
    /// Panics if the extents are not positive.
    pub fn new(a: f64, b: f64) -> Self {
        assert!(a > 0.0 && b > 0.0, "surface extents must be positive");
        Layout { a, b, contacts: Vec::new() }
    }

    /// Adds a contact and returns its index.
    pub fn push(&mut self, c: Contact) -> usize {
        self.contacts.push(c);
        self.contacts.len() - 1
    }

    /// Surface extent `(a, b)`.
    pub fn extent(&self) -> (f64, f64) {
        (self.a, self.b)
    }

    /// Number of contacts.
    pub fn n_contacts(&self) -> usize {
        self.contacts.len()
    }

    /// The contacts.
    pub fn contacts(&self) -> &[Contact] {
        &self.contacts
    }

    /// Total contact area divided by surface area (the area-weighting `p`
    /// of the fast-Poisson preconditioner, thesis §2.2.2).
    pub fn contact_area_fraction(&self) -> f64 {
        self.contacts.iter().map(Contact::area).sum::<f64>() / (self.a * self.b)
    }

    /// Checks bounds, positive areas, and pairwise overlap.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), LayoutError> {
        for (i, c) in self.contacts.iter().enumerate() {
            if c.area() <= 0.0 {
                return Err(LayoutError::EmptyContact { contact: i });
            }
            let bb = c.bbox();
            if bb.x0 < -1e-9 || bb.y0 < -1e-9 || bb.x1 > self.a + 1e-9 || bb.y1 > self.b + 1e-9 {
                return Err(LayoutError::OutOfBounds { contact: i });
            }
        }
        // Overlap check via bounding boxes first, rect-level second.
        for i in 0..self.contacts.len() {
            let bi = self.contacts[i].bbox();
            for j in (i + 1)..self.contacts.len() {
                let bj = self.contacts[j].bbox();
                if !bi.intersects(&bj) {
                    continue;
                }
                for ri in self.contacts[i].rects() {
                    for rj in self.contacts[j].rects() {
                        if ri.intersects(rj) {
                            return Err(LayoutError::Overlap { first: i, second: j });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Assigns grid cells to contacts on a uniform `nx x ny` grid over the
    /// surface: returns, per contact, the indices `cy * nx + cx` of cells
    /// whose *centers* fall inside the contact.
    ///
    /// Used for both the eigenfunction solver's panels and the FD solver's
    /// top-surface nodes.
    pub fn cell_indices(&self, nx: usize, ny: usize) -> Vec<Vec<u32>> {
        let dx = self.a / nx as f64;
        let dy = self.b / ny as f64;
        let mut out = vec![Vec::new(); self.contacts.len()];
        for (ci, c) in self.contacts.iter().enumerate() {
            for r in c.rects() {
                let ix0 = (r.x0 / dx - 0.5).ceil().max(0.0) as usize;
                let ix1 = ((r.x1 / dx - 0.5).floor() as isize).min(nx as isize - 1);
                let iy0 = (r.y0 / dy - 0.5).ceil().max(0.0) as usize;
                let iy1 = ((r.y1 / dy - 0.5).floor() as isize).min(ny as isize - 1);
                if ix1 < 0 || iy1 < 0 {
                    continue;
                }
                for iy in iy0..=(iy1 as usize) {
                    let cy = (iy as f64 + 0.5) * dy;
                    for ix in ix0..=(ix1 as usize) {
                        let cx = (ix as f64 + 0.5) * dx;
                        if r.contains(cx, cy) {
                            out[ci].push((iy * nx + ix) as u32);
                        }
                    }
                }
            }
            out[ci].sort_unstable();
            out[ci].dedup();
        }
        out
    }

    /// Splits every contact at the boundaries of the `2^levels x 2^levels`
    /// quadtree squares, so that each resulting contact lies inside exactly
    /// one finest-level square (thesis §3.2: "contacts do not cross square
    /// boundaries at any level ... splitting large contacts ... may be
    /// necessary").
    ///
    /// Returns the new layout and, for each original contact, the indices
    /// of the pieces it became.
    pub fn split_to_squares(&self, levels: u32) -> (Layout, Vec<Vec<usize>>) {
        let nsq = 1usize << levels;
        let sx = self.a / nsq as f64;
        let sy = self.b / nsq as f64;
        let mut out = Layout::new(self.a, self.b);
        let mut mapping = Vec::with_capacity(self.contacts.len());
        for c in &self.contacts {
            // bucket sub-rects by square
            use std::collections::BTreeMap;
            let mut buckets: BTreeMap<(usize, usize), Vec<Rect>> = BTreeMap::new();
            for r in c.rects() {
                let jx0 = (r.x0 / sx).floor() as usize;
                let jx1 = (((r.x1 - 1e-12) / sx).floor() as usize).min(nsq - 1);
                let jy0 = (r.y0 / sy).floor() as usize;
                let jy1 = (((r.y1 - 1e-12) / sy).floor() as usize).min(nsq - 1);
                for jy in jy0..=jy1 {
                    for jx in jx0..=jx1 {
                        let piece = Rect::new(
                            r.x0.max(jx as f64 * sx),
                            r.y0.max(jy as f64 * sy),
                            r.x1.min((jx + 1) as f64 * sx),
                            r.y1.min((jy + 1) as f64 * sy),
                        );
                        if piece.area() > 1e-12 {
                            buckets.entry((jx, jy)).or_default().push(piece);
                        }
                    }
                }
            }
            let mut pieces = Vec::new();
            for (_, rects) in buckets {
                pieces.push(out.push(Contact::new(rects)));
            }
            mapping.push(pieces);
        }
        (out, mapping)
    }

    /// Builds a layout from ASCII art: each character is one cell of a
    /// uniform grid over the surface; `.` and space are empty; any other
    /// character marks a contact cell, and 4-connected runs of the *same*
    /// character form one contact.
    ///
    /// # Panics
    ///
    /// Panics if `art` is empty or has inconsistent line lengths.
    pub fn from_ascii(a: f64, b: f64, art: &str) -> Layout {
        let lines: Vec<&str> = art.lines().filter(|l| !l.trim().is_empty()).collect();
        assert!(!lines.is_empty(), "empty ascii layout");
        let rows: Vec<Vec<char>> = lines.iter().map(|l| l.chars().collect()).collect();
        let h = rows.len();
        let w = rows[0].len();
        for r in &rows {
            assert_eq!(r.len(), w, "inconsistent ascii line lengths");
        }
        let dx = a / w as f64;
        let dy = b / h as f64;
        // union-find over cells
        let mut parent: Vec<usize> = (0..w * h).collect();
        fn find(p: &mut [usize], mut i: usize) -> usize {
            while p[i] != i {
                p[i] = p[p[i]];
                i = p[i];
            }
            i
        }
        let occupied = |ch: char| ch != '.' && ch != ' ';
        for y in 0..h {
            for x in 0..w {
                let ch = rows[y][x];
                if !occupied(ch) {
                    continue;
                }
                if x + 1 < w && rows[y][x + 1] == ch {
                    let (r1, r2) = (find(&mut parent, y * w + x), find(&mut parent, y * w + x + 1));
                    parent[r1] = r2;
                }
                if y + 1 < h && rows[y + 1][x] == ch {
                    let (r1, r2) =
                        (find(&mut parent, y * w + x), find(&mut parent, (y + 1) * w + x));
                    parent[r1] = r2;
                }
            }
        }
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<usize, Vec<Rect>> = BTreeMap::new();
        for y in 0..h {
            // ascii row 0 is the *top* of the surface
            let gy = h - 1 - y;
            let mut x = 0;
            while x < w {
                let ch = rows[y][x];
                if !occupied(ch) {
                    x += 1;
                    continue;
                }
                // horizontal run of same root
                let root = find(&mut parent, y * w + x);
                let x0 = x;
                while x < w && rows[y][x] == ch && find(&mut parent, y * w + x) == root {
                    x += 1;
                }
                groups.entry(root).or_default().push(Rect::new(
                    x0 as f64 * dx,
                    gy as f64 * dy,
                    x as f64 * dx,
                    (gy + 1) as f64 * dy,
                ));
            }
        }
        let mut layout = Layout::new(a, b);
        for (_, rects) in groups {
            layout.push(Contact::new(rects));
        }
        layout
    }

    /// Renders the layout as ASCII art on a `w x h` character grid, top
    /// row first (for figure harnesses): `#` marks a cell that overlaps
    /// some contact with positive area, so a contact smaller than a cell
    /// still shows.
    pub fn to_ascii(&self, w: usize, h: usize) -> String {
        let dx = self.a / w as f64;
        let dy = self.b / h as f64;
        let mut hit = vec![false; w * h];
        // the cells a rectangle can touch, one cell of slack each way;
        // `intersects` decides
        let span = |lo: f64, hi: f64, d: f64, k: usize| {
            let first = ((lo / d).floor() - 1.0).max(0.0) as usize;
            first..((hi / d).ceil() + 1.0).clamp(0.0, k as f64) as usize
        };
        for r in self.contacts.iter().flat_map(Contact::rects) {
            for row in span(r.y0, r.y1, dy, h) {
                for col in span(r.x0, r.x1, dx, w) {
                    let cell = Rect::new(
                        col as f64 * dx,
                        row as f64 * dy,
                        (col + 1) as f64 * dx,
                        (row + 1) as f64 * dy,
                    );
                    hit[row * w + col] |= r.intersects(&cell);
                }
            }
        }
        let mut s = String::with_capacity((w + 1) * h);
        for row in (0..h).rev() {
            s.extend(hit[row * w..][..w].iter().map(|&on| if on { '#' } else { '.' }));
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_basics() {
        let r = Rect::new(3.0, 1.0, 1.0, 2.0); // normalized
        assert_eq!(r.x0, 1.0);
        assert_eq!(r.width(), 2.0);
        assert_eq!(r.area(), 2.0);
        assert!(r.contains(1.5, 1.5));
        assert!(!r.contains(3.0, 1.5)); // half-open
    }

    #[test]
    fn contact_centroid_and_area() {
        let c = Contact::new(vec![Rect::new(0.0, 0.0, 2.0, 1.0), Rect::new(0.0, 1.0, 1.0, 2.0)]);
        assert!((c.area() - 3.0).abs() < 1e-12);
        let (cx, cy) = c.centroid();
        assert!((cx - (2.0 * 1.0 + 1.0 * 0.5) / 3.0).abs() < 1e-12);
        assert!((cy - (2.0 * 0.5 + 1.0 * 1.5) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn validate_catches_problems() {
        let mut l = Layout::new(10.0, 10.0);
        l.push(Contact::rect(Rect::new(1.0, 1.0, 3.0, 3.0)));
        l.push(Contact::rect(Rect::new(2.0, 2.0, 4.0, 4.0)));
        assert_eq!(l.validate(), Err(LayoutError::Overlap { first: 0, second: 1 }));

        let mut l = Layout::new(10.0, 10.0);
        l.push(Contact::rect(Rect::new(8.0, 8.0, 12.0, 9.0)));
        assert_eq!(l.validate(), Err(LayoutError::OutOfBounds { contact: 0 }));
    }

    #[test]
    fn cell_indices_simple() {
        let mut l = Layout::new(4.0, 4.0);
        l.push(Contact::rect(Rect::new(0.0, 0.0, 2.0, 2.0)));
        let cells = l.cell_indices(4, 4);
        // cells with centers (0.5,0.5),(1.5,0.5),(0.5,1.5),(1.5,1.5)
        assert_eq!(cells[0], vec![0, 1, 4, 5]);
    }

    #[test]
    fn split_to_squares_splits_bar() {
        let mut l = Layout::new(8.0, 8.0);
        // a horizontal bar crossing two level-1 squares
        l.push(Contact::rect(Rect::new(1.0, 1.0, 7.0, 2.0)));
        let (split, map) = l.split_to_squares(1);
        assert_eq!(split.n_contacts(), 2);
        assert_eq!(map[0], vec![0, 1]);
        let total: f64 = split.contacts().iter().map(Contact::area).sum();
        assert!((total - 6.0).abs() < 1e-12);
        split.validate().unwrap();
    }

    #[test]
    fn ascii_roundtrip() {
        let art = "\
....
.##.
.#..
....";
        let l = Layout::from_ascii(4.0, 4.0, art);
        assert_eq!(l.n_contacts(), 1);
        assert!((l.contacts()[0].area() - 3.0).abs() < 1e-12);
        // two separate contacts with different characters
        let art2 = "ab\n..";
        let l2 = Layout::from_ascii(2.0, 2.0, art2);
        assert_eq!(l2.n_contacts(), 2);
        l2.validate().unwrap();
    }

    #[test]
    fn ascii_ring_is_one_contact() {
        let art = "\
#####
#...#
#...#
#####";
        let l = Layout::from_ascii(5.0, 4.0, art);
        assert_eq!(l.n_contacts(), 1);
        assert!((l.contacts()[0].area() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn to_ascii_marks_every_cell_a_contact_overlaps() {
        // 8 x 4 cells of 8 x 8 on a 64 x 32 surface
        let mut l = Layout::new(64.0, 32.0);
        // smaller than a cell, away from the cell's center (12, 12)
        l.push(Contact::rect(Rect::new(9.0, 9.5, 9.5, 10.0)));
        // across the boundary x = 32 of two cells in the top row
        l.push(Contact::rect(Rect::new(30.0, 26.0, 34.0, 28.0)));
        // ending exactly on the boundary y = 16: the cell above stays empty
        l.push(Contact::rect(Rect::new(58.0, 12.0, 60.0, 16.0)));
        assert_eq!(l.to_ascii(8, 4), "...##...\n........\n.#.....#\n........\n");
    }
}
