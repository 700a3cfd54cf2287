// Fixture: rule `hot-path-unwrap` covers the support check, which runs on
// every online answer.
pub fn resolve(columns: &[&str], sets: &std::collections::BTreeMap<String, u64>) -> Vec<u64> {
    let mut out = Vec::new();
    for col in columns {
        out.push(*sets.get(*col).expect("column listed by columns()"));
    }
    out
}
