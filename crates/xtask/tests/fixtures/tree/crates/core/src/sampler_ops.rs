// Fixture: rule `hot-path-unwrap` covers the per-row admission loop, the
// hottest loop in the repo: it runs inside a pool worker, once per
// selected row. The closing `#[cfg(test)]` oracle is exempt.
pub fn offer_rows(slots: &mut [i64], vals: &[i64]) {
    let mut next = slots.iter_mut();
    for &v in vals {
        *next.next().expect("one slot per value") = v;
    }
}

#[cfg(test)]
pub fn oracle(v: Option<i64>) -> i64 {
    v.unwrap()
}
