// D3 negative: `static` without `mut` is ordinary, and a `static mut`
// scratch cell inside #[cfg(test)] is exempt.
static LIMIT: u64 = 1024;

pub fn limit() -> u64 {
    LIMIT
}

#[cfg(test)]
mod tests {
    static mut SCRATCH: u64 = 0;

    #[test]
    fn scaffolding() {
        // SAFETY: the only access, on the one thread that runs this test.
        unsafe { SCRATCH = super::limit() };
    }
}
