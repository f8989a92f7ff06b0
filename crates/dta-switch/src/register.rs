//! Stateful register arrays.
//!
//! Tofino register arrays live in stage-local SRAM and are accessed through
//! stateful ALUs, at most once per array per pipeline traversal. Code that
//! models switch logic (the translator's Postcarding cache, Append batch
//! buffers, per-list head pointers) uses [`RegisterArray`] rather than plain
//! `Vec`s so that every access is counted — the count is what Table 3's
//! stateful-ALU column is derived from.

/// A register array of `W`-typed cells with access accounting.
#[derive(Debug, Clone)]
pub struct RegisterArray<T: Copy + Default> {
    cells: Vec<T>,
    /// Stateful-ALU operations performed (each read-modify-write is one).
    pub accesses: u64,
}

impl<T: Copy + Default> RegisterArray<T> {
    /// Array of `size` default-initialized cells.
    pub fn new(size: usize) -> Self {
        RegisterArray { cells: vec![T::default(); size], accesses: 0 }
    }

    /// Array of `size` cells from one zeroed allocation (`alloc_zeroed`
    /// maps untouched zero pages, where the element-wise fill of
    /// [`RegisterArray::new`] writes every byte — real milliseconds for
    /// SRAM-scale arrays rebuilt per scenario run).
    ///
    /// # Safety
    /// `T` must be valid (and equal to `T::default()`) as the all-zero bit
    /// pattern.
    pub unsafe fn new_zeroed(size: usize) -> Self {
        // SAFETY: the caller guarantees all-zero bytes are a valid `T`, so
        // the zeroed slice is fully initialized.
        let cells = unsafe { Box::<[T]>::new_zeroed_slice(size).assume_init() }.into_vec();
        RegisterArray { cells, accesses: 0 }
    }

    /// Rebuild an array around recycled cell storage (e.g., a
    /// default-filled buffer recovered by [`RegisterArray::take_cells`]).
    /// The access counter starts at zero; the caller vouches that `cells`
    /// holds the intended initial contents.
    pub fn from_cells(cells: Vec<T>) -> Self {
        RegisterArray { cells, accesses: 0 }
    }

    /// Take the cell storage out (for recycling pools), leaving the array
    /// empty.
    pub fn take_cells(&mut self) -> Vec<T> {
        std::mem::take(&mut self.cells)
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the array has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Read cell `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds (a P4 compiler would reject it).
    pub fn read(&mut self, i: usize) -> T {
        self.accesses += 1;
        self.cells[i]
    }

    /// Write cell `i`.
    pub fn write(&mut self, i: usize, v: T) {
        self.accesses += 1;
        self.cells[i] = v;
    }

    /// Read-modify-write cell `i` with `f`, returning the *previous* value
    /// (the stateful-ALU idiom).
    pub fn rmw(&mut self, i: usize, f: impl FnOnce(T) -> T) -> T {
        self.accesses += 1;
        let old = self.cells[i];
        self.cells[i] = f(old);
        old
    }

    /// Read-modify-write cell `i` where it lives: `f` edits the cell and its
    /// result is the action's output. One stateful-ALU access, and a wide
    /// cell (a cache row) is never copied out and back.
    #[inline]
    pub fn rmw_in_place<R>(&mut self, i: usize, f: impl FnOnce(&mut T) -> R) -> R {
        self.accesses += 1;
        f(&mut self.cells[i])
    }

    /// Reset all cells to default (control-plane operation, not counted).
    pub fn clear(&mut self) {
        self.cells.fill(T::default());
    }

    /// SRAM bytes this array occupies.
    pub fn sram_bytes(&self) -> usize {
        self.cells.len() * core::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmw_returns_previous() {
        let mut r = RegisterArray::<u32>::new(4);
        assert_eq!(r.rmw(2, |v| v + 5), 0);
        assert_eq!(r.rmw(2, |v| v * 2), 5);
        assert_eq!(r.read(2), 10);
        assert_eq!(r.accesses, 3);
    }

    #[test]
    fn rmw_in_place_edits_the_cell_and_returns_the_output() {
        let mut r = RegisterArray::<[u32; 4]>::new(2);
        let full = r.rmw_in_place(1, |cell| {
            cell[2] = 9;
            cell.iter().all(|w| *w != 0)
        });
        assert!(!full);
        assert_eq!(r.read(1), [0, 0, 9, 0]);
        assert_eq!(r.read(0), [0; 4]);
        assert_eq!(r.accesses, 3);
    }

    #[test]
    fn clear_resets_but_keeps_counters() {
        let mut r = RegisterArray::<u64>::new(2);
        r.write(0, 9);
        r.clear();
        assert_eq!(r.read(0), 0);
        assert_eq!(r.accesses, 2); // write + read; clear not counted
    }

    #[test]
    fn sram_accounting() {
        let r = RegisterArray::<u32>::new(32 * 1024);
        assert_eq!(r.sram_bytes(), 128 * 1024);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let mut r = RegisterArray::<u8>::new(1);
        let _ = r.read(1);
    }
}
