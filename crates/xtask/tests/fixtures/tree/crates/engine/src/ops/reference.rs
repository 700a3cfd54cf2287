//! The sanctioned row-at-a-time oracle: uses every banned token and
//! must stay silent under rule 8.

pub fn eval_rows(compiled: &Compiled, rows: usize) -> Vec<u32> {
    (0..rows as u32)
        .filter(|&r| compiled.matches(r as usize))
        .collect()
}

pub fn first_value(col: &Column) -> i64 {
    col.i64_at(0)
}
