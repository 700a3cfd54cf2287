// Fixture: rule `hot-path-unwrap` covers the estimator — every answer
// ends in it. The lookup of a column the loop itself listed is the shape
// the real file had before it iterated `(column, set)` pairs.
pub fn compile(columns: &[&str], sets: &std::collections::BTreeMap<String, u64>) -> Vec<u64> {
    columns
        .iter()
        .map(|col| *sets.get(*col).unwrap())
        .collect()
}
