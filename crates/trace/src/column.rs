//! A fold's per-record column of whole numbers, four bytes a value while
//! the values are small.

/// Values kept as `u32`s until one does not fit, then as `u64`s: the
/// column widens in place, once, so every value reads back exactly. A
/// [`Column::clear`] makes it narrow again, so one wide flow does not
/// double every later flow's columns.
#[derive(Debug)]
pub(crate) enum Column {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl Default for Column {
    fn default() -> Column {
        Column::Narrow(Vec::new())
    }
}

impl Column {
    /// Empties the column, keeping a narrow column's capacity.
    pub(crate) fn clear(&mut self) {
        match self {
            Column::Narrow(xs) => xs.clear(),
            Column::Wide(_) => *self = Column::default(),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, x: u64) {
        match self {
            Column::Narrow(xs) => match u32::try_from(x) {
                Ok(x) => xs.push(x),
                Err(_) => self.widen(x),
            },
            Column::Wide(xs) => xs.push(x),
        }
    }

    /// Rewrites a narrow column as a wide one, then appends `x`.
    #[cold]
    fn widen(&mut self, x: u64) {
        if let Column::Narrow(xs) = self {
            let mut wide = Vec::with_capacity(xs.len() + 1);
            wide.extend(xs.iter().map(|&x| u64::from(x)));
            wide.push(x);
            *self = Column::Wide(wide);
        }
    }

    /// The values, in push order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let (narrow, wide): (&[u32], &[u64]) = match self {
            Column::Narrow(xs) => (xs, &[]),
            Column::Wide(xs) => (&[], xs),
        };
        narrow
            .iter()
            .map(|&x| u64::from(x))
            .chain(wide.iter().copied())
    }

    /// The value a sort would put at `len / 2`, found by selection (which
    /// reorders the column), or `None` if it is empty. The narrow values
    /// order as their `u64`s do, so either width selects the same value.
    pub(crate) fn median(&mut self) -> Option<u64> {
        match self {
            Column::Narrow(xs) => median(xs).map(u64::from),
            Column::Wide(xs) => median(xs),
        }
    }

    /// Bytes the values take.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        match self {
            Column::Narrow(xs) => xs.len() * 4,
            Column::Wide(xs) => xs.len() * 8,
        }
    }
}

fn median<T: Ord + Copy>(xs: &mut [T]) -> Option<T> {
    if xs.is_empty() {
        return None;
    }
    let mid = xs.len() / 2;
    let (_, m, _) = xs.select_nth_unstable(mid);
    Some(*m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_value_past_u32_widens_the_column_and_every_value_reads_back() {
        let mut col = Column::default();
        let values = [7, 0, u64::from(u32::MAX), 1 << 32, 3, u64::MAX];
        for (n, &x) in values.iter().enumerate() {
            col.push(x);
            assert_eq!(matches!(col, Column::Wide(_)), n >= 3);
        }
        assert!(col.iter().eq(values));
        assert_eq!(col.median(), Some(u64::from(u32::MAX)));
        col.clear();
        assert!(matches!(col, Column::Narrow(_)));
        assert_eq!(col.median(), None);
        col.push(5);
        assert!(col.iter().eq([5]));
    }
}
