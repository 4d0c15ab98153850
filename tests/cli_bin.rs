//! End-to-end tests of the compiled `diffcode` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn diffcode(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_diffcode"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_temp(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diffcode-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

const INSECURE: &str = r#"
class Demo {
    byte[] encrypt(byte[] data, javax.crypto.SecretKey key) throws Exception {
        Cipher c = Cipher.getInstance("AES");
        c.init(Cipher.ENCRYPT_MODE, key);
        return c.doFinal(data);
    }
}
"#;

const SECURE: &str = r#"
class Demo {
    byte[] encrypt(byte[] data, javax.crypto.SecretKey key, byte[] iv) throws Exception {
        Cipher c = Cipher.getInstance("AES/GCM/NoPadding", "BC");
        c.init(Cipher.ENCRYPT_MODE, key, new GCMParameterSpec(128, iv));
        return c.doFinal(data);
    }
}
"#;

#[test]
fn no_args_prints_usage_and_exits_2() {
    let out = diffcode(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_errors() {
    let out = diffcode(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn chaos_prints_exact_accounting() {
    let out = diffcode(&["chaos", "--seed", "7", "--rate", "0.5", "--projects", "3"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("chaos run: seed 7"), "{stdout}");
    assert!(stdout.contains("quarantine rate:"), "{stdout}");
    assert!(stdout.contains("accounting exact"), "{stdout}");
}

#[test]
fn chaos_rejects_bad_rate() {
    let out = diffcode(&["chaos", "--rate", "1.5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not in 0..1"));
}

#[test]
fn rules_prints_figure9() {
    let out = diffcode(&["rules"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("R7"));
    assert!(stdout.contains("R13"));
    assert!(stdout.contains("References:"));
}

#[test]
fn analyze_prints_dag() {
    let path = write_temp("Analyze.java", INSECURE);
    let out = diffcode(&["analyze", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Cipher getInstance arg1:AES"), "{stdout}");
}

#[test]
fn diff_prints_usage_change() {
    let old = write_temp("Old.java", INSECURE);
    let new = write_temp("New.java", SECURE);
    let out = diffcode(&["diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("- Cipher getInstance arg1:AES"), "{stdout}");
    assert!(
        stdout.contains("+ Cipher getInstance arg1:AES/GCM/NoPadding"),
        "{stdout}"
    );
}

#[test]
fn check_exit_codes_reflect_findings() {
    let insecure = write_temp("Insecure.java", INSECURE);
    let out = diffcode(&["check", insecure.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "violations -> exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("R7"), "{stdout}");

    let secure = write_temp("Secure.java", SECURE);
    let out = diffcode(&["check", secure.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "clean -> exit 0");
}

#[test]
fn check_android_context_enables_r6() {
    let src = r#"
    class T {
        byte[] token() {
            SecureRandom r = new SecureRandom();
            byte[] b = new byte[16];
            r.nextBytes(b);
            return b;
        }
    }
    "#;
    let path = write_temp("Token.java", src);
    let plain = diffcode(&["check", path.to_str().unwrap()]);
    assert!(!String::from_utf8_lossy(&plain.stdout).contains("R6"));
    let android = diffcode(&["check", path.to_str().unwrap(), "--android", "17"]);
    assert!(
        String::from_utf8_lossy(&android.stdout).contains("R6"),
        "{}",
        String::from_utf8_lossy(&android.stdout)
    );
}

#[test]
fn check_walks_directories() {
    let dir = std::env::temp_dir().join(format!("diffcode-cli-dirtest-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("nested")).unwrap();
    std::fs::write(dir.join("A.java"), INSECURE).unwrap();
    std::fs::write(dir.join("nested/B.java"), SECURE).unwrap();
    std::fs::write(dir.join("README.md"), "not java").unwrap();
    let out = diffcode(&["check", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 file(s)"), "{stdout}");
}

#[test]
fn bad_flag_reports_error() {
    for (args, message) in [
        (&["check", "--bogus"][..], "unknown flag"),
        (
            &["mine", "--cluster-cache-dir", "x"][..],
            "unknown mine argument `--cluster-cache-dir`",
        ),
        (
            &["cache", "stats", "--namespace", "cluster"][..],
            "unknown cache flag `--namespace`",
        ),
    ] {
        let out = diffcode(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

/// The `N` of a `prefix N` token in `text`, e.g. `clusters elicited 11`.
fn count_after(text: &str, prefix: &str) -> usize {
    let rest = &text[text
        .find(prefix)
        .unwrap_or_else(|| panic!("{prefix}: {text}"))..];
    rest[prefix.len()..]
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no count after {prefix}: {text}"))
}

#[test]
fn mine_cluster_agrees_with_metrics_cluster_count() {
    let mine = diffcode(&["mine", "--seed", "42", "--projects", "60", "--cluster"]);
    assert!(mine.status.success());
    let mine = String::from_utf8_lossy(&mine.stdout);
    let metrics = diffcode(&["metrics", "--seed", "42", "--projects", "60"]);
    assert!(metrics.status.success());
    let metrics = String::from_utf8_lossy(&metrics.stdout);
    let clusters = count_after(&metrics, "clusters elicited");
    assert!(clusters > 0, "{metrics}");
    let kept = count_after(&metrics, "after fdup (kept)");
    assert!(
        mine.contains(&format!(
            "clustering: {kept} change(s) in {clusters} cluster(s)\n"
        )),
        "{mine}"
    );
    assert!(mine.contains("cluster digest: "), "{mine}");
}

#[test]
fn mine_cluster_cold_and_warm_runs_print_identical_output() {
    let dir = std::env::temp_dir().join(format!("diffcode-cli-cluster-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let args = [
        "mine",
        "--seed",
        "42",
        "--projects",
        "24",
        "--cluster",
        "--cache-dir",
        dir.to_str().unwrap(),
    ];
    let cold = diffcode(&args);
    let warm = diffcode(&args);
    assert!(cold.status.success() && warm.status.success());
    let cold = String::from_utf8_lossy(&cold.stdout);
    assert!(cold.contains("clustering: "), "{cold}");
    assert_eq!(cold, String::from_utf8_lossy(&warm.stdout));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two processes, one cache directory: while this process holds the
/// cache open for writing, `diffcode mine` on the same directory exits
/// non-zero with the lock error, and `cache stats` / `cache verify`
/// still read it.
#[test]
fn second_writer_process_is_refused_while_inspection_reads() {
    let dir = std::env::temp_dir().join(format!("diffcode-cli-lock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap();
    let mine = [
        "mine",
        "--seed",
        "3",
        "--projects",
        "2",
        "--cache-dir",
        dir_arg,
    ];
    assert!(diffcode(&mine).status.success(), "priming run");
    let held = diffcode::MiningCache::open(
        &dir,
        &[],
        &diffcode::PipelineLimits::DEFAULT,
        usagegraph::DEFAULT_MAX_DEPTH,
    )
    .unwrap();

    let out = diffcode(&mine);
    assert!(!out.status.success(), "a second writer must not run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("locked by another writer"), "{stderr}");
    let vacuum = diffcode(&["cache", "vacuum", "--cache-dir", dir_arg]);
    assert!(
        !vacuum.status.success(),
        "vacuum writes, so it is refused too"
    );
    for action in ["stats", "verify"] {
        let out = diffcode(&["cache", action, "--cache-dir", dir_arg]);
        assert!(
            out.status.success(),
            "cache {action}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    drop(held);
    assert!(
        diffcode(&mine).status.success(),
        "the lock left with its holder"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn check_materialized_generated_project() {
    // Generated corpus -> real files on disk -> the CLI checks them.
    let corpus = corpus::generate(&corpus::GeneratorConfig::small(6, 0xD15C));
    let dir = std::env::temp_dir().join(format!("diffcode-materialize-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let project = &corpus.projects[0];
    let written = project.materialize(&dir).unwrap();
    assert!(!written.is_empty());

    let out = diffcode(&["check", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Exit code 0 or 1 depending on the project's state; never a usage
    // error, and the report must count the right number of files.
    assert!(
        out.status.code() == Some(0) || out.status.code() == Some(1),
        "{stdout} {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(&format!("{} file(s)", written.len())),
        "{stdout}"
    );
}
