//! Checkpoint + tokenizer persistence: a trained model saved and reloaded
//! must reproduce its evaluation results exactly.

use astromlab::eval::Method;
use astromlab::model::{serial, Tier};
use astromlab::tokenizer::Tokenizer;
use astromlab::{Study, StudyConfig};

#[test]
fn saved_model_scores_identically_after_reload() {
    let study = Study::prepare(StudyConfig::smoke(301)).expect("prepare");
    let (native, _) = study.pretrain_native(Tier::S7b).expect("pretrain");
    let before = study.eval(&native, Method::TokenBase);

    let dir = std::env::temp_dir().join("astromlab_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("native.ckpt");
    serial::save_checkpoint(&native, &ckpt).unwrap();
    let reloaded = serial::load_checkpoint(&ckpt).unwrap();
    assert_eq!(reloaded.data, native.data);

    let after = study.eval(&reloaded, Method::TokenBase);
    assert_eq!(before, after);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn tokenizer_blob_round_trips_through_disk() {
    let study = Study::prepare(StudyConfig::smoke(302)).expect("prepare");
    let dir = std::env::temp_dir().join("astromlab_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tok.bin");
    std::fs::write(&path, study.tokenizer.to_bytes()).unwrap();
    let blob = std::fs::read(&path).unwrap();
    let restored = Tokenizer::from_bytes(&blob).unwrap();
    let sample = &study.mcq.questions[0].question;
    assert_eq!(study.tokenizer.encode(sample), restored.encode(sample));
    let _ = std::fs::remove_file(&path);
}
