//! Markings of 1-safe nets: sets of marked places.

use std::fmt;

use crate::bitset::BitSet;
use crate::net::{PetriNet, PlaceId};

/// A marking of a 1-safe net — the set of places currently holding a token.
///
/// # Examples
///
/// ```
/// use si_petri::{Marking, PlaceId};
///
/// let mut m = Marking::new();
/// m.insert(PlaceId(2));
/// assert!(m.contains(PlaceId(2)));
/// assert_eq!(m.iter().collect::<Vec<_>>(), vec![PlaceId(2)]);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Marking {
    places: BitSet,
}

impl Marking {
    /// Creates an empty marking.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if `place` is marked.
    pub fn contains(&self, place: PlaceId) -> bool {
        self.places.contains(place.index())
    }

    /// Marks `place`. Returns `true` if it was previously unmarked.
    pub fn insert(&mut self, place: PlaceId) -> bool {
        self.places.insert(place.index())
    }

    /// Unmarks `place`. Returns `true` if it was previously marked.
    pub fn remove(&mut self, place: PlaceId) -> bool {
        self.places.remove(place.index())
    }

    /// Number of marked places.
    pub fn len(&self) -> usize {
        self.places.len()
    }

    /// Returns `true` if no place is marked.
    pub fn is_empty(&self) -> bool {
        self.places.is_empty()
    }

    /// Iterates over the marked places in id order.
    pub fn iter(&self) -> impl Iterator<Item = PlaceId> + '_ {
        self.places.iter().map(|i| PlaceId(i as u32))
    }

    /// Returns `true` if every place marked here is also marked in `other`.
    pub fn is_subset(&self, other: &Marking) -> bool {
        self.places.is_subset(&other.places)
    }

    /// Renders the marking with place names from `net`, e.g. `{p2, p6, p8}`.
    pub fn display<'a>(&'a self, net: &'a PetriNet) -> impl fmt::Display + 'a {
        DisplayMarking { marking: self, net }
    }
}

impl FromIterator<PlaceId> for Marking {
    fn from_iter<I: IntoIterator<Item = PlaceId>>(iter: I) -> Self {
        let mut m = Marking::new();
        for p in iter {
            m.insert(p);
        }
        m
    }
}

impl fmt::Debug for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

struct DisplayMarking<'a> {
    marking: &'a Marking,
    net: &'a PetriNet,
}

impl fmt::Display for DisplayMarking<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.marking.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.net.place_name(p))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut m = Marking::new();
        assert!(m.insert(PlaceId(1)));
        assert!(!m.insert(PlaceId(1)));
        assert!(m.contains(PlaceId(1)));
        assert!(m.remove(PlaceId(1)));
        assert!(m.is_empty());
    }

    #[test]
    fn from_iterator_and_eq() {
        let a: Marking = [PlaceId(0), PlaceId(3)].into_iter().collect();
        let b: Marking = [PlaceId(3), PlaceId(0)].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn subset() {
        let a: Marking = [PlaceId(1)].into_iter().collect();
        let b: Marking = [PlaceId(1), PlaceId(2)].into_iter().collect();
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
    }

    #[test]
    fn display_uses_names() {
        let mut net = PetriNet::new();
        let p0 = net.add_place("req");
        let p1 = net.add_place("ack");
        let m: Marking = [p0, p1].into_iter().collect();
        assert_eq!(m.display(&net).to_string(), "{req, ack}");
    }
}
