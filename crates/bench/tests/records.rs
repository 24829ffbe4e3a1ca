//! The committed runtime records are whole and clean: every line of every
//! `BENCH_rt.<row>.jsonl` parses, each file holds exactly its row's
//! records in run order, and every line was measured on a clean commit
//! with no repetition that left a non-serializable history.

use rtdb_bench::scenarios::SCENARIOS;
use rtdb_util::Json;

#[test]
fn committed_records_are_whole_and_clean() {
    for s in &SCENARIOS {
        let path = format!(
            "{}/../../BENCH_rt.{}.jsonl",
            env!("CARGO_MANIFEST_DIR"),
            s.name
        );
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let lines: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("{path}: {e} in {l}")))
            .collect();
        let text_of = |line: &Json, field| line.get(field).and_then(Json::as_str).map(String::from);
        let ids: Vec<String> = lines.iter().filter_map(|l| text_of(l, "id")).collect();
        let want: Vec<String> = s.points().iter().map(|p| s.id(p)).collect();
        assert_eq!(ids, want, "{path}: the ids are not the row's records");
        for (line, id) in lines.iter().zip(&ids) {
            let commit = text_of(line, "commit").unwrap_or_default();
            assert!(
                !commit.is_empty() && commit != "unknown" && !commit.ends_with("-dirty"),
                "{path}: {id} was measured at commit `{commit}`, not a clean one"
            );
            let nonserializable = line.get("nonserializable_reps").and_then(Json::as_f64);
            assert_eq!(nonserializable, Some(0.0), "{path}: {id}");
        }
    }
}
